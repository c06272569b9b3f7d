import itertools

import numpy as np

from rbgames import lattice_points, seeded_rng
from rbgames.cuts import cover_cuts, gomory_cuts, knapsack_rows
from rbgames.generators import canonical_knapsack_game, random_knapsack_game

from oracles import knapsack_rows_loop

_CUT_EPS = 1e-7


def test_cover_cut_on_the_knapsack_row():
    # sigma = (1, 0.5) violates 3 x1 + 4 x2 <= 5 only fractionally;
    # the cover {1, 2} (3 + 4 > 5) gives x1 + x2 <= 1, violated by 0.5
    A = np.array([[3.0, 4.0]])
    b = np.array([5.0])
    sigma = np.array([1.0, 0.5])
    cuts = cover_cuts(knapsack_rows(A, b, np.array([True, True])), sigma)
    assert len(cuts) == 1
    pi, pi0 = cuts[0]
    assert np.allclose(pi, [1.0, 1.0])
    assert abs(pi0 - 1.0) < 1e-12
    assert float(pi @ sigma) > pi0 + 1e-6


def test_cover_cut_ignores_satisfied_points():
    A = np.array([[3.0, 4.0]])
    b = np.array([5.0])
    assert cover_cuts(knapsack_rows(A, b, np.array([True, True])), np.array([0.0, 1.0])) == []
    assert cover_cuts(knapsack_rows(A, b, np.array([True, True])), np.array([1.0, 0.0])) == []


def test_cover_cut_skips_noninteger_rows():
    A = np.array([[3.5, 4.0]])
    b = np.array([5.0])
    assert cover_cuts(knapsack_rows(A, b, np.array([True, True])), np.array([1.0, 0.5])) == []
    # continuous variables disqualify the row as well
    A = np.array([[3.0, 4.0]])
    assert cover_cuts(knapsack_rows(A, b, np.array([True, False])), np.array([1.0, 0.5])) == []


def test_cover_cut_rounds_a_nearly_integral_row():
    # a pooled Gomory row one ulp off integral: summed raw, {x0, x3, x4}
    # weighs 5.9999999999999998 > 5.999999999999999 and would yield
    # x0 + x3 + x4 <= 2, which cuts off the feasible point (1, 0, 0, 1, 1, 0)
    A = np.array([[2.0, 2.0, 1.0, 2.0, 1.9999999999999998, 2.0]])
    b = np.array([5.999999999999999])
    sigma = np.array([0.9, 0.2, 0.3, 0.9, 0.9, 0.1])
    points = np.array(list(itertools.product([0.0, 1.0], repeat=6)))
    feasible = points[points @ np.round(A[0]) <= 6.0]
    assert any(np.array_equal(p, [1, 0, 0, 1, 1, 0]) for p in feasible)
    binary = np.ones(6, dtype=bool)
    for pi, pi0 in cover_cuts(knapsack_rows(A, b, binary), sigma):
        assert np.all(feasible @ pi <= pi0 + 1e-9), (pi, pi0)
    # the rounded row still yields its true cover, x0 + x2 + x3 + x4 <= 3
    [(pi, pi0)] = cover_cuts(knapsack_rows(A, b, binary), np.array([1.0, 0.0, 0.9, 1.0, 1.0, 0.0]))
    assert np.array_equal(pi, [1, 0, 1, 1, 1, 0]) and pi0 == 3.0
    assert np.all(feasible @ pi <= pi0)


def test_knapsack_rows_match_the_row_loop():
    # random row sets mixing every kind of row: eligible knapsacks and
    # rows with non-integral data, a negative coefficient, a single
    # variable, a non-binary variable, no cover, a nearly integral entry
    # or a non-integral right-hand side; the one array pass keeps the rows
    # the loop keeps, in order, with the same rounded data
    rng = seeded_rng(41)
    kinds = {"kept": 0, "dropped": 0}
    for _ in range(300):
        m, n = int(rng.integers(0, 9)), int(rng.integers(1, 7))
        A = rng.integers(0, 6, size=(m, n)).astype(float) * (rng.random((m, n)) < 0.7)
        b = rng.integers(0, 2 * n, size=m).astype(float)
        for i in range(m):
            kind = int(rng.integers(12))
            j = int(rng.integers(n))
            if kind == 0:
                A[i, j] += 0.5
            elif kind == 1:
                A[i, j] = -float(rng.integers(1, 4))
            elif kind == 2:
                A[i] = 0.0
                A[i, j] = 3.0
            elif kind == 3:
                b[i] = A[i].sum() + float(rng.integers(0, 3))
            elif kind == 4:
                A[i, j] += 1e-10 * rng.choice([-1.0, 1.0])
            elif kind == 5:
                b[i] += 0.5
        binary = rng.random(n) < 0.9
        got, want = knapsack_rows(A, b, binary), knapsack_rows_loop(A, b, binary)
        assert len(got) == len(want)
        for (a, sup, bi), (a_ref, sup_ref, bi_ref) in zip(got, want):
            assert a.tobytes() == a_ref.tobytes() and np.array_equal(sup, sup_ref) and bi == bi_ref
        kinds["kept"] += len(want)
        kinds["dropped"] += m - len(want)
    assert kinds["kept"] >= 200 and kinds["dropped"] >= 500, kinds


def test_gomory_cut_separates_the_fractional_vertex():
    # each fractional vertex of the knapsack relaxation, paired with an
    # objective that supports it, must be separated by a valid cut
    A = np.array([[3.0, 4.0]])
    b = np.array([5.0])
    lb, ub = np.zeros(2), np.ones(2)
    feas = [np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    cases = [
        (np.array([-4.0, -4.0]), np.array([1.0, 0.5])),
        (np.array([-1.0, -3.5]), np.array([1.0 / 3.0, 1.0])),
    ]
    for cost, sigma in cases:
        cuts = gomory_cuts(A, b, lb, ub, [0, 1], cost, sigma)
        assert cuts, "a fractional vertex of an all-integer system must be cut"
        for pi, pi0 in cuts:
            assert float(pi @ sigma) > pi0 + 1e-9  # separation
            for x in feas:
                assert float(pi @ x) <= pi0 + 1e-9  # validity
    # at (1, 0.5) the tableau cut coincides with the greedy cover cut
    cuts = gomory_cuts(A, b, lb, ub, [0, 1], np.array([-4.0, -4.0]), np.array([1.0, 0.5]))
    assert any(np.allclose(pi, [1.0, 1.0]) and abs(pi0 - 1.0) < 1e-9 for pi, pi0 in cuts)


def test_gomory_requires_integral_data():
    A = np.array([[3.0, 4.5]])
    b = np.array([5.0])
    assert gomory_cuts(A, b, np.zeros(2), np.ones(2), [0, 1],
                       np.array([-1.0, -2.0]), np.array([1.0, 0.4])) == []
    # mixed-integer sigma is out of scope too
    A = np.array([[3.0, 4.0]])
    assert gomory_cuts(A, b, np.zeros(2), np.ones(2), [0],
                       np.array([-1.0, -2.0]), np.array([1.0, 0.5])) == []


def test_cuts_never_remove_lattice_points():
    # every generated cut must keep the full integer feasible set
    rng = seeded_rng(19)
    produced = 0
    for seed in range(60):
        game = random_knapsack_game(seed, n_items=int(3 + seed % 4)).game()
        for p in game.players:
            pts = lattice_points(p)
            n = p.nvars
            sigma = rng.random(n)
            A = p.A.to_dense()
            binary = np.zeros(n, dtype=bool)
            binary[list(p.integers)] = np.array(
                [p.lb[j] == 0.0 and p.ub[j] == 1.0 for j in p.integers]
            )
            for pi, pi0 in cover_cuts(knapsack_rows(A, p.b, binary), sigma):
                produced += 1
                for x in pts:
                    assert float(pi @ x) <= pi0 + _CUT_EPS, (seed, p.name, "cover")
            cost = rng.normal(size=n)
            for pi, pi0 in gomory_cuts(A, p.b, p.lb, p.ub, list(p.integers), cost, sigma):
                produced += 1
                for x in pts:
                    assert float(pi @ x) <= pi0 + _CUT_EPS, (seed, p.name, "gomory")
    assert produced >= 50  # the sweep has to generate a real cut load


def test_canonical_game_cut_matches_the_worked_example():
    game = canonical_knapsack_game().game()
    blue = game.players[0]
    sigma = np.array([1.0, 0.5])
    cuts = cover_cuts(knapsack_rows(blue.A.to_dense(), blue.b, np.array([True, True])), sigma)
    assert any(np.allclose(pi, [1.0, 1.0]) and abs(pi0 - 1.0) < 1e-9 for pi, pi0 in cuts)
