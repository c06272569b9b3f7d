import time

import numpy as np
import pytest

from rbgames import (
    FIX_FREE,
    FIX_W_ZERO,
    FIX_Z_ZERO,
    LCP,
    LCPSolution,
    NoSolution,
    seeded_rng,
    solve_lcp,
    solve_lcp_with_fixings,
)

from rbgames.errors import BudgetExhausted
from rbgames.lcp import _branching, _lemke

from oracles import brute_force_lcp, lemke_row_loop

_RES_TOL = 1e-7


def _check(problem, sol, eps=_RES_TOL):
    zmin, wmin, gap = sol.residuals()
    assert zmin >= -eps
    assert wmin >= -eps
    assert abs(gap) <= problem.order * eps
    assert np.allclose(sol.w, problem.M @ sol.z + problem.q, atol=1e-9)


def test_trivial_interior_solution():
    problem = LCP(M=np.eye(2), q=np.array([-1.0, -1.0]))
    sol = solve_lcp(problem)
    assert isinstance(sol, LCPSolution)
    assert np.allclose(sol.z, [1.0, 1.0], atol=1e-9)
    _check(problem, sol)


def test_zero_solution_when_q_is_nonnegative():
    problem = LCP(M=np.array([[0.0, 1.0], [1.0, 0.0]]), q=np.array([2.0, 3.0]))
    sol = solve_lcp(problem)
    assert isinstance(sol, LCPSolution)
    assert np.allclose(sol.z, [0.0, 0.0], atol=1e-9)


def test_certified_empty():
    # w = -1 < 0 is forced and z cannot lift it: no solution exists
    problem = LCP(M=np.array([[0.0]]), q=np.array([-1.0]))
    out = solve_lcp(problem)
    assert isinstance(out, NoSolution)
    assert out.certified


def test_lemke_failure_is_not_certified():
    problem = LCP(M=np.array([[0.0]]), q=np.array([-1.0]))
    out = _lemke(problem, 1e-7, 200 + 30 * problem.order)
    assert isinstance(out, NoSolution)
    assert not out.certified


def test_fixings_lp():
    problem = LCP(M=np.eye(2), q=np.array([-1.0, 2.0]))
    sol = solve_lcp_with_fixings(problem, np.array([FIX_W_ZERO, FIX_Z_ZERO]))
    assert sol is not None
    assert np.allclose(sol.z, [1.0, 0.0], atol=1e-7)
    # fixing w_2 = 0 is impossible here: w_2 = z_2 + 2 >= 2
    assert solve_lcp_with_fixings(problem, np.array([FIX_FREE, FIX_W_ZERO])) is None


def test_fixings_validation():
    problem = LCP(M=np.eye(2), q=np.zeros(2))
    with pytest.raises(ValueError):
        solve_lcp_with_fixings(problem, np.zeros(3, dtype=np.int64))


def test_validation():
    with pytest.raises(ValueError):
        LCP(M=np.zeros((2, 3)), q=np.zeros(2))
    with pytest.raises(ValueError):
        LCP(M=np.eye(2), q=np.zeros(3))
    with pytest.raises(ValueError):
        LCP(M=np.full((1, 1), np.nan), q=np.zeros(1))


def test_small_instances_match_pattern_oracle():
    rng = seeded_rng(17)
    solvable = 0
    empty = 0
    for trial in range(120):
        n = int(rng.integers(1, 5))
        M = np.round(rng.normal(size=(n, n)) * 2, 1)
        q = np.round(rng.normal(size=n) * 2, 1)
        problem = LCP(M=M, q=q)
        ref = brute_force_lcp(M, q)
        out = solve_lcp(problem, node_limit=20000)
        if ref:
            # a nondegenerate basis solution exists, so the solver must
            # produce some solution (not necessarily the same one)
            assert isinstance(out, LCPSolution), trial
            _check(problem, out)
            solvable += 1
        elif isinstance(out, NoSolution):
            # pattern enumeration only misses singular-basis solutions,
            # so emptiness claims must be certified
            assert out.certified
            empty += 1
        else:
            _check(problem, out)
    assert solvable >= 60
    assert empty >= 5


def test_positive_definite_instances_and_method_agreement():
    rng = seeded_rng(23)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        B = rng.normal(size=(n, n))
        M = B @ B.T + n * np.eye(n)
        q = np.round(rng.normal(size=n) * 3, 2)
        problem = LCP(M=M, q=q)
        # solve_lcp would return the Lemke probe's own answer here
        a = _branching(problem, 1e-7, 100000, None)
        b = _lemke(problem, 1e-7, 200 + 30 * n)
        assert isinstance(a, LCPSolution), trial
        assert isinstance(b, LCPSolution), trial
        _check(problem, a)
        _check(problem, b)
        # strictly monotone LCPs have a unique solution
        assert np.allclose(a.z, b.z, atol=1e-6), trial


def test_branching_respects_node_limit():
    rng = seeded_rng(40)
    raised = False
    problem = None
    for trial in range(10):
        M = np.round(rng.normal(size=(6, 6)), 1)
        q = np.round(rng.normal(size=6), 1)
        problem = LCP(M=M, q=q)
        try:
            _branching(problem, 1e-7, 2, None)
        except BudgetExhausted:
            raised = True
            break
    assert raised
    # the same instance resolves once the budget is realistic
    out = _branching(problem, 1e-7, 20000, None)
    assert isinstance(out, (LCPSolution, NoSolution))


def test_vectorized_lemke_matches_the_row_loop_reference():
    rng = seeded_rng(61)
    outcomes = set()
    for trial in range(400):
        n = int(rng.integers(2, 41))
        if trial % 2:
            B = rng.normal(size=(n, n))
            M = B @ B.T + np.eye(n)
        else:
            M = np.round(rng.normal(size=(n, n)) * 2, 1)
        q = np.round(rng.normal(size=n) * 3, 1)
        max_iter = 200 + 30 * n
        kind, z_ref, pivots = lemke_row_loop(M, q, max_iter)
        try:
            out = _lemke(LCP(M=M, q=q), 1e-9, max_iter)
        except BudgetExhausted:
            assert kind == "cap", trial
            continue
        outcomes.add(kind)
        assert out.nodes == pivots, trial
        if kind == "solution":
            assert isinstance(out, LCPSolution), trial
            assert np.array_equal(out.z, z_ref), trial
        else:
            assert isinstance(out, NoSolution), trial
    assert outcomes == {"solution", "ray"}


def test_lemke_honors_the_deadline():
    rng = seeded_rng(7)
    M = np.round(rng.normal(size=(30, 30)) * 2, 1)
    problem = LCP(M=M, q=-np.ones(30))
    with pytest.raises(BudgetExhausted):
        _lemke(problem, 1e-7, 200 + 30 * 30, deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExhausted):
        solve_lcp(problem, deadline=time.monotonic() - 1.0)


def _random_lcp(rng, n, degenerate):
    M = np.round(rng.normal(size=(n, n)) * 2, 0)
    q = np.round(rng.normal(size=n) * 2, 0)
    if degenerate:
        # zero rows and columns in M, zeros in q
        M[rng.random(n) < 0.25] = 0.0
        M[:, rng.random(n) < 0.25] = 0.0
        q[rng.random(n) < 0.3] = 0.0
    return LCP(M=M, q=q)


def test_screen_verdicts_match_the_node_lp():
    from rbgames.lcp import _NodeScreen

    rng = seeded_rng(29)
    verdicts = {True: 0, False: 0}
    for trial in range(160):
        n = int(rng.integers(1, 9))
        problem = _random_lcp(rng, n, degenerate=trial % 2 == 1)
        screen = _NodeScreen(problem)
        free = np.full(n, FIX_FREE, dtype=np.int64)
        root = screen.root()
        assert (root is None) == (solve_lcp_with_fixings(problem, free) is None), trial
        if root is None:
            continue
        for _ in range(4):
            # a random walk down the tree, keeping the parent's basis
            fixings, warm = free.copy(), root
            while np.any(fixings == FIX_FREE):
                j = int(rng.choice(np.nonzero(fixings == FIX_FREE)[0]))
                children = [FIX_Z_ZERO, FIX_W_ZERO]
                rng.shuffle(children)
                survivor = None
                for side in children:
                    child = fixings.copy()
                    child[j] = side
                    infeasible, child_warm = screen.check(warm, child)
                    assert infeasible == (solve_lcp_with_fixings(problem, child) is None), (trial, child)
                    verdicts[infeasible] += 1
                    if not infeasible and survivor is None:
                        survivor = child, child_warm
                if survivor is None:
                    break
                fixings, warm = survivor
    assert verdicts[True] >= 100
    assert verdicts[False] >= 100


def test_screen_changes_no_branching_outcome(monkeypatch):
    import rbgames.lcp as lcp_module

    rng = seeded_rng(31)
    problems = [_random_lcp(rng, int(rng.integers(3, 11)), degenerate=k % 3 == 2) for k in range(90)]
    real = lcp_module.solve_lcp_with_fixings
    node_lps = [0]

    def counted(*args, **kwargs):
        node_lps[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(lcp_module, "solve_lcp_with_fixings", counted)
    screened = [solve_lcp(p) for p in problems]
    screened_lps = node_lps[0]
    node_lps[0] = 0
    monkeypatch.setattr(lcp_module._NodeScreen, "check", lambda self, warm, fixings: (False, warm))
    plain = [solve_lcp(p) for p in problems]
    for k, (a, b) in enumerate(zip(screened, plain)):
        assert type(a) is type(b), k
        assert a.nodes == b.nodes, k
        if isinstance(a, LCPSolution):
            assert np.array_equal(a.z, b.z), k
        else:
            assert a.certified == b.certified, k
    # the screen must have spared some node LPs for the comparison to mean anything
    assert screened_lps < node_lps[0]


def test_node_lps_stay_bounded_when_column_sums_are_negative():
    # the node objective sum_free (z_j + w_j) is bounded below by
    # -sum_free q_j however negative its cost on z is, so no node LP may
    # come back unbounded: each is infeasible or a point with z, w >= 0
    rng = seeded_rng(53)
    feasible = 0
    for trial in range(60):
        n = int(rng.integers(2, 8))
        M = np.round(rng.normal(size=(n, n)) * 2, 0) - 1.0
        M[:, M.sum(axis=0) >= 0] -= 1.0 + np.abs(M).max()
        assert np.all(M.sum(axis=0) < 0)
        problem = LCP(M=M, q=np.round(rng.normal(size=n) * 3, 0) + 2.0)
        tol = 1e-6 * (1.0 + np.abs(problem.q).max())
        for _ in range(4):
            fixings = np.full(n, FIX_FREE, dtype=np.int64)
            for j in rng.permutation(n):
                sol = solve_lcp_with_fixings(problem, fixings)
                if sol is None:
                    break
                feasible += 1
                assert sol.z.min() >= -tol and sol.w.min() >= -tol, trial
                fixings[j] = FIX_Z_ZERO if rng.random() < 0.5 else FIX_W_ZERO
    assert feasible >= 200


def test_node_lps_honor_the_deadline(monkeypatch):
    import rbgames.lcp as lcp_module

    problem = LCP(M=np.eye(2), q=np.array([-1.0, 2.0]))
    with pytest.raises(BudgetExhausted):
        solve_lcp_with_fixings(problem, np.full(2, FIX_FREE), deadline=time.monotonic() - 1.0)

    # every node solves its LP, so branching's node count is the LP count
    monkeypatch.setattr(lcp_module._NodeScreen, "check", lambda self, warm, fixings: (False, warm))
    rng = seeded_rng(31)
    problem = next(p for p in (_random_lcp(rng, 8, degenerate=False) for _ in range(200))
                   if getattr(solve_lcp(p), "nodes", 0) >= 3)
    real = lcp_module.solve_lcp_with_fixings
    calls = [0]

    def expiring(problem, fixings, deadline=None):
        # the third node LP starts after the deadline has passed
        calls[0] += 1
        return real(problem, fixings, deadline=time.monotonic() - 1.0 if calls[0] == 3 else deadline)

    monkeypatch.setattr(lcp_module, "solve_lcp_with_fixings", expiring)
    with pytest.raises(BudgetExhausted) as info:
        solve_lcp(problem, deadline=time.monotonic() + 60.0)
    assert calls[0] == 3
    assert info.value.nodes == 3
