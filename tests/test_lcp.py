import copy
import time
from types import SimpleNamespace

import numpy as np
import pytest

import rbgames.cutplay as cutplay_module
import rbgames.lcp as lcp_module
from rbgames import (
    FIX_FREE,
    FIX_W_ZERO,
    FIX_Z_ZERO,
    LCP,
    LCPSolution,
    NoSolution,
    SolverOptions,
    cut_and_play,
    seeded_rng,
    solve_lcp,
    solve_lcp_with_fixings,
)
from rbgames.generators import nondegenerate_seeds, random_knapsack_game

from rbgames.errors import BudgetExhausted

from oracles import (brute_force_lcp, encode_region_reference, leaving_full_block_reference, lemke_reference,
                     lemke_row_loop, murty_in_scale, nash_lcp_reference)

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
    # w = -1 < 0 is forced and z cannot lift it: no solution exists.  M = 0
    # is copositive-plus, and there Lemke's ray proves emptiness
    problem = LCP(M=np.array([[0.0]]), q=np.array([-1.0]))
    assert not brute_force_lcp(problem.M, problem.q)
    out = solve_lcp(problem)
    assert isinstance(out, NoSolution)
    assert out.nodes == 1 and out.reason == "ray"


def test_lemke_failure_is_not_certified():
    # on an M that is not copositive-plus a ray proves nothing: some of
    # these LCPs have a solution that Lemke's path never reaches
    rng = seeded_rng(19)
    missed = 0
    for trial in range(300):
        n = int(rng.integers(2, 5))
        problem = LCP(M=np.round(rng.normal(size=(n, n)) * 2, 1), q=np.round(rng.normal(size=n) * 2, 1))
        out = solve_lcp(problem)
        if isinstance(out, NoSolution) and brute_force_lcp(problem.M, problem.q):
            missed += 1
        elif isinstance(out, LCPSolution):
            _check(problem, out)
    assert missed >= 15


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


def _copositive_plus(rng, n):
    # a low-rank positive semidefinite part plus a skew-symmetric one:
    # z'Mz = |B'z|^2 >= 0, and z'Mz = 0 forces (M + M')z = 0
    B = np.round(rng.normal(size=(n, int(rng.integers(0, n + 1)))), 1)
    S = np.round(rng.normal(size=(n, n)), 1)
    return B @ B.T + S - S.T


def test_small_instances_match_pattern_oracle():
    rng = seeded_rng(17)
    solvable = 0
    empty = 0
    for trial in range(160):
        n = int(rng.integers(1, 6))
        M = _copositive_plus(rng, n)
        q = np.round(rng.normal(size=n) * 2, 1)
        problem = LCP(M=M, q=q)
        out = solve_lcp(problem)
        if brute_force_lcp(M, q):
            # Lemke is complete on a feasible copositive-plus LCP
            assert isinstance(out, LCPSolution), trial
            _check(problem, out)
            solvable += 1
        elif isinstance(out, NoSolution):
            empty += 1
        else:
            # pattern enumeration misses solutions on singular bases only
            _check(problem, out)
    assert solvable >= 100
    assert empty >= 15


def test_positive_definite_instances_and_method_agreement():
    rng = seeded_rng(23)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        B = rng.normal(size=(n, n))
        M = B @ B.T + n * np.eye(n)
        q = np.round(rng.normal(size=n) * 3, 2)
        problem = LCP(M=M, q=q)
        out = solve_lcp(problem)
        assert isinstance(out, LCPSolution), trial
        _check(problem, out)
        # strictly monotone LCPs have a unique solution
        [(z, _)] = brute_force_lcp(M, q)
        assert np.allclose(out.z, z, atol=1e-6), trial


def test_lemke_respects_its_pivot_cap():
    # on an LCP whose row-scaled form is Murty's M = I + 2 (strict lower
    # triangle), q = -1, this Lemke takes 2^n pivots; n = 9 needs 512,
    # past the cap of 200 + 30 n = 470
    for n in range(2, 10):
        M, q = murty_in_scale(n)
        problem = LCP(M=M, q=q)
        out = solve_lcp(problem)
        if n < 9:
            assert isinstance(out, LCPSolution) and out.nodes == 2 ** n, n
            [(z, _)] = brute_force_lcp(M, problem.q)
            assert np.allclose(out.z, z, atol=1e-9), n
        else:
            assert isinstance(out, NoSolution) and out.nodes == 200 + 30 * n and out.reason == "pivot cap"


def test_vectorized_lemke_matches_the_row_loop_reference():
    rng = seeded_rng(61)
    outcomes = set()
    for trial in range(300):
        n = int(rng.integers(2, 31))
        if trial % 2:
            M = _copositive_plus(rng, n)
        else:
            M = np.round(rng.normal(size=(n, n)) * 2, 1)
        q = np.round(rng.normal(size=n) * 3, 1)
        kind, z_ref, pivots = lemke_row_loop(M, q, 200 + 30 * n, cover=1.0 + np.abs(M).sum(axis=1))
        out = solve_lcp(LCP(M=M, q=q))
        outcomes.add(kind)
        assert out.nodes == pivots, trial
        if kind == "solution":
            assert isinstance(out, LCPSolution), trial
            assert np.allclose(out.z, z_ref, atol=1e-8), trial
        else:
            assert isinstance(out, NoSolution), trial
    assert outcomes == {"solution", "ray"}


def test_lemke_runs_the_row_scaled_lcp_with_covering_vector_one(reference_nash_lcps):
    # on the Nash LCPs and on 250 random copositive-plus LCPs, Lemke takes
    # the pivots that the row loop takes with covering vector 1 on the
    # explicitly formed (D^{-1} M D^{-1}, D^{-1} q), D = diag(1 + |M| 1),
    # and its z is D^{-1} times the row loop's, as z' = D z there
    rng = seeded_rng(67)
    problems = list(reference_nash_lcps)
    for _ in range(250):
        n = int(rng.integers(2, 25))
        problems.append(LCP(M=_copositive_plus(rng, n), q=np.round(rng.normal(size=n) * 3, 1)))
    ends = {"solution": 0, "ray": 0}
    for trial, problem in enumerate(problems):
        n, d = problem.order, 1.0 + np.abs(problem.M).sum(axis=1)
        kind, z_ref, pivots = lemke_row_loop(problem.M / np.outer(d, d), problem.q / d, 200 + 30 * n, np.ones(n))
        out = solve_lcp(problem)
        ends[kind] += 1
        assert out.nodes == pivots, trial
        if kind == "solution":
            assert isinstance(out, LCPSolution), trial
            assert np.allclose(out.z, z_ref / d, rtol=1e-9, atol=1e-9), trial
        else:
            assert isinstance(out, NoSolution), trial
    assert ends["solution"] >= 200 and ends["ray"] >= 5, ends


def test_a_warm_start_solves_a_bordered_lcp_or_restarts_cold():
    # 400 copositive-plus LCPs of order m = n + k, each started warm from
    # the cold solution of its leading block of order n.  The warm
    # attempt alone ends at a solution within m pivots, or on a ray or at
    # its budget of m pivots, which prove nothing; solve_lcp then
    # restarts cold, gives the cold solve's answer and counts the pivots
    # of both attempts
    rng = seeded_rng(71)
    ends = {"solution": 0, "ray": 0, "pivot cap": 0}
    for trial in range(400):
        n, k = int(rng.integers(3, 16)), int(rng.integers(1, 4))
        M, q = _copositive_plus(rng, n + k), np.round(rng.normal(size=n + k) * 2, 1)
        small = solve_lcp(LCP(M=M[:n, :n], q=q[:n]))
        if not isinstance(small, LCPSolution):
            continue
        problem = LCP(M=M, q=q)
        warm = lcp_module._attempt(problem, small.basis.bordered(problem), n + k, None)
        out = solve_lcp(problem, start=small)
        if isinstance(warm, LCPSolution):
            ends["solution"] += 1
            scale = 1.0 + np.abs(out.z).max() * np.abs(out.w).max()
            assert out.z.min() >= 0.0 and out.w.min() >= -1e-9 * scale, trial
            assert abs(out.z @ out.w) <= 1e-9 * scale * (n + k), trial
            assert np.allclose(out.w, M @ out.z + q, atol=1e-9), trial
            assert not out.restarted and out.nodes == warm.nodes <= n + k, trial
            assert out.z.tobytes() == warm.z.tobytes(), trial
        else:
            ends[warm.reason] += 1
            assert warm.nodes == n + k if warm.reason == "pivot cap" else warm.nodes < n + k, trial
            cold = solve_lcp(problem)
            assert out.restarted and type(out) is type(cold), trial
            assert out.nodes == warm.nodes + cold.nodes, trial
            if isinstance(cold, LCPSolution):
                assert out.z.tobytes() == cold.z.tobytes(), trial
            else:
                assert out.reason == cold.reason, trial
    assert ends["solution"] >= 300 and ends["ray"] >= 2 and ends["pivot cap"] >= 2, ends


def test_a_deadline_in_the_cold_restart_carries_the_warm_pivots(monkeypatch):
    # the first bordered LCP of the set above whose warm attempt fails:
    # the clock passes the deadline at the cold restart's first check,
    # so BudgetExhausted carries the warm attempt's pivots, and nothing
    # else
    rng = seeded_rng(71)
    while True:
        n, k = int(rng.integers(3, 16)), int(rng.integers(1, 4))
        M, q = _copositive_plus(rng, n + k), np.round(rng.normal(size=n + k) * 2, 1)
        small = solve_lcp(LCP(M=M[:n, :n], q=q[:n]))
        problem = LCP(M=M, q=q)
        if isinstance(small, LCPSolution):
            warm = lcp_module._attempt(problem, small.basis.bordered(problem), n + k, None)
            if isinstance(warm, NoSolution):
                break
    checks = [0]

    def monotonic():
        checks[0] += 1
        return float(checks[0])

    # one deadline check per warm pivot, then the cold one past it
    monkeypatch.setattr(lcp_module, "time", SimpleNamespace(monotonic=monotonic))
    with pytest.raises(BudgetExhausted) as info:
        solve_lcp(problem, deadline=warm.nodes + 0.5, start=small)
    assert warm.nodes > 0 and info.value.nodes == warm.nodes
    assert checks[0] == warm.nodes + 1


def test_lemke_honors_the_deadline():
    rng = seeded_rng(7)
    problem = LCP(M=_copositive_plus(rng, 30), q=-np.ones(30))
    with pytest.raises(BudgetExhausted) as info:
        solve_lcp(problem, deadline=time.monotonic() - 1.0)
    assert info.value.nodes == 0


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


def test_node_lps_honor_the_deadline():
    problem = LCP(M=np.eye(2), q=np.array([-1.0, 2.0]))
    with pytest.raises(BudgetExhausted):
        solve_lcp_with_fixings(problem, np.full(2, FIX_FREE), deadline=time.monotonic() - 1.0)


def _nash_lcps(monkeypatch, games):
    """The Nash LCP of every cut-and-play round of the games, in order,
    each once: a round that restarts cold solves its LCP twice."""
    problems = []
    real = cutplay_module.solve_lcp

    def recorded(problem, deadline=None, start=None):
        if not problems or problems[-1] is not problem:
            problems.append(problem)
        return real(problem, deadline, start)

    monkeypatch.setattr(cutplay_module, "solve_lcp", recorded)
    for game in games:
        cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    return problems


@pytest.fixture(scope="module")
def reference_rounds():
    """(game, regions, LCP, index map) of every cut-and-play round of 20
    corpus games, 3 ladder games and one 5x5 game, whose LCP has order
    105, as ``build_nash_lcp`` built them."""
    shapes = [(2, 2, s) for s in nondegenerate_seeds(2, 14)] + [(2, 3, s) for s in nondegenerate_seeds(3, 6)]
    shapes += [(2, 6, 0), (3, 5, 2), (4, 4, 1), (5, 5, 0)]
    rounds = []
    real = cutplay_module.build_nash_lcp

    def recorded(game, regions, last=None):
        out = real(game, regions, last)
        rounds.append((game, regions, *out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutplay_module, "build_nash_lcp", recorded)
        for p, m, s in shapes:
            cut_and_play(random_knapsack_game(s, p, m).game(), SolverOptions(deviation_eps=3e-4))
    return rounds


@pytest.fixture(scope="module")
def reference_nash_lcps(reference_rounds):
    """Every round's Nash LCP of the reference games."""
    problems = [problem for _, _, problem, _ in reference_rounds]
    assert len(problems) >= 60 and max(p.order for p in problems) >= 100
    return problems


def test_each_round_borders_the_last_and_matches_the_reference_builder(reference_rounds):
    # every round after a game's first borders the last round's LCP,
    # whose (M, q) is its leading principal block, and equals the
    # reference builder's on the same regions bitwise, once lam is put in
    # the reference's order: player by player, each player's rows in
    # region order.  The built LCP lays lam out in the order the rows
    # came in: the first round's player by player, then each round's new
    # rows player by player
    bordered, last_game = 0, None
    for game, regions, problem, index_map in reference_rounds:
        M, q, _ = nash_lcp_reference(game, regions)
        kept = [encode_region_reference(region).g.size for region in regions]
        if game is last_game:
            n = last.order
            assert np.array_equal(problem.M[:n, :n], last.M) and np.array_equal(problem.q[:n], last.q)
            chunks += [(i, seen[i], kept[i]) for i in range(len(regions))]
            bordered += 1
        else:
            chunks = [(i, 0, kept[i]) for i in range(len(regions))]
        boxes = M.shape[0] - sum(kept)  # the order of (v, mu+, mu-)
        starts = boxes + np.concatenate([[0], np.cumsum(kept)])
        perm = np.concatenate([np.arange(boxes)] + [starts[i] + np.arange(a, b) for i, a, b in chunks])
        assert np.array_equal(problem.M, M[np.ix_(perm, perm)]) and np.array_equal(problem.q, q[perm])
        assert index_map.rows == [region.nrows for region in regions]
        last, seen, last_game = problem, kept, game
    assert bordered >= 30


def test_lemke_matches_the_reference_on_nash_lcps(monkeypatch, reference_nash_lcps):
    # the solver's explicit inverse and the reference's block inverse take
    # the same pivots to the same basis, and their z differ only by
    # rounding
    ends = []
    real = lcp_module._solution

    def recorded(problem, basis, pivots):
        ends.append(np.sort(basis.basic))
        return real(problem, basis, pivots)

    monkeypatch.setattr(lcp_module, "_solution", recorded)
    for problem in reference_nash_lcps:
        out = solve_lcp(problem)
        z, pivots, basic = lemke_reference(problem, 1.0 + np.abs(problem.M).sum(axis=1))
        assert out.nodes == pivots
        assert isinstance(out, LCPSolution) and z is not None
        if pivots:
            assert np.array_equal(ends.pop(), basic)
        assert np.allclose(out.z, z, rtol=0.0, atol=1e-10)


def test_the_tie_break_matches_the_full_block_reference(monkeypatch, reference_nash_lcps):
    # every ratio test of the Nash LCPs and of 400 degenerate LCPs, whose
    # integer q repeats its entries, picks the row that the full n-row
    # lexicographic block picks; both kinds of deciding column occur: a
    # basic w's unit column and a nonbasic w's column of invT.  Each
    # degenerate M is c0 I plus a skew circulant, monotone with equal row
    # norms, so the row scaling is uniform and keeps q's ties
    rng = seeded_rng(29)
    degenerate = []
    for _ in range(400):
        n = int(rng.integers(3, 13))
        c = np.zeros(n)
        c[1:] = rng.integers(-2, 3, size=n - 1)
        c[1:] -= c[1:][::-1].copy()
        c[0] = rng.integers(0, 3)
        M = np.array([np.roll(c, i) for i in range(n)])
        degenerate.append(LCP(M=M, q=rng.integers(-2, 2, size=n).astype(float)))
    real = lcp_module._leaving
    decided = {"unit": 0, "nonbasic": 0}

    def checked(basis, d):
        want, j = leaving_full_block_reference(basis, d)
        assert real(basis, d) == want
        if j is not None:
            decided["unit" if j in basis.basic else "nonbasic"] += 1
        return want

    monkeypatch.setattr(lcp_module, "_leaving", checked)
    for problem in reference_nash_lcps + degenerate:
        solve_lcp(problem)
    assert decided["unit"] >= 50 and decided["nonbasic"] >= 50, decided


def test_a_warm_start_enters_z0_at_the_lexicographic_minimum(monkeypatch):
    # every start, cold and warm, of 200 corpus games and the ladder
    # shapes at seed 0: z0 enters in the row r of the least row of
    # [x | B^{-1}] / s_r, read over the full block, and after that pivot
    # along -s every row of [x | B^{-1}] is lexicographically positive,
    # so no basis of the path repeats.  Some starts tie in x / s and are
    # broken on B^{-1}
    real = lcp_module._lowest
    seen = {"starts": 0, "ties": 0, "warm": 0}

    def checked(basis):
        block = np.column_stack([basis.x, basis.invT[basis.slot].T]) / basis.scale[:, None]
        keep = np.arange(basis.n)
        for col in block.T:
            least = col[keep].min()
            keep = keep[col[keep] <= least + 1e-9 * (1.0 + abs(least))]
            if keep.size == 1:
                break
        r = real(basis)
        assert r == keep[0]
        seen["starts"] += 1
        warm = not np.array_equal(basis.cover, basis.scale)
        tied = np.count_nonzero(block[:, 0] <= block[r, 0] + 1e-9 * (1.0 + abs(block[r, 0]))) > 1
        seen["warm"] += int(warm)
        seen["ties"] += int(warm and tied)
        after = copy.deepcopy(basis)
        after.x, after.invT = after.blk[0], after.blk[1:]  # views again, as a copy drops them
        after.pivot(2 * after.n, -after.scale, r)
        for row in np.column_stack([after.x, after.invT[after.slot].T]):
            lead = row[np.abs(row) > 1e-9]
            assert lead.size and lead[0] > 0.0
        return r

    monkeypatch.setattr(lcp_module, "_lowest", checked)
    games = [random_knapsack_game(s, 2, 2) for s in nondegenerate_seeds(2, 200)]
    games += [random_knapsack_game(0, p, m) for p, m in ((2, 6), (2, 10), (3, 3), (3, 5), (4, 4))]
    for game in games:
        cut_and_play(game.game(), SolverOptions(deviation_eps=3e-4))
    assert seen["warm"] >= 150 and seen["starts"] >= 350 and seen["ties"] >= 3, seen


def test_the_kept_inverse_inverts_the_basis_at_every_refinement(monkeypatch):
    # every round of a 5x5 game (order 105, 207 pivots) and of a 3x5
    # game, solved as cut-and-play solves them, warm from the last
    # round's basis, and then cold: B^{-1} kept by columns stays an
    # inverse of B, the basic values kept above it in the pivot block
    # stay B^{-1} q, the nonbasic w's fill the first k rows of invT, and
    # each basic w_j keeps the exact unit column that lets a pivot leave
    # its row alone.  A warm basis holds at its start too, where z0's
    # direction, B^{-1} times its column -B s, is -s
    checks = {"warm": 0, "cold": 0, "start": 0}
    real_refine, real_bordered = lcp_module._Basis.refine, lcp_module._Basis.bordered

    def check(basis, kind):
        n, k = basis.n, basis.k
        basic, slot = np.array(basis.basic), np.array(basis.slot)
        # the columns of w, z and z0 in  w - M z - z0 d = q
        B = np.hstack([np.eye(n), -basis.M, -basis.cover[:, None]])[:, basic]
        assert np.abs(B @ basis.invT[slot].T - np.eye(n)).max() <= 1e-9
        assert np.abs(basis.x - np.linalg.solve(B, basis.q)).max() <= 1e-9
        # the first k rows of invT hold the nonbasic w's
        assert np.array_equal(np.sort(basis.order[:k]), np.setdiff1d(np.arange(n), basic))
        assert np.array_equal(slot[basis.order], np.arange(n))
        for r in np.nonzero(basic < n)[0]:
            unit = np.zeros(n)
            unit[r] = 1.0
            assert basis.invT[slot[basic[r]]].tobytes() == unit.tobytes()
        checks[kind] += 1

    def checked_refine(basis):
        check(basis, "cold" if np.array_equal(basis.cover, basis.scale) else "warm")
        real_refine(basis)

    def checked_bordered(basis, problem):
        out = real_bordered(basis, problem)
        check(out, "start")
        assert np.allclose(out.direction(2 * out.n), -out.scale, rtol=1e-9, atol=1e-9)
        return out

    monkeypatch.setattr(lcp_module._Basis, "refine", checked_refine)
    monkeypatch.setattr(lcp_module._Basis, "bordered", checked_bordered)
    problems = _nash_lcps(monkeypatch, [random_knapsack_game(0, 5, 5).game(), random_knapsack_game(2, 3, 5).game()])
    assert len(problems) >= 4 and max(p.order for p in problems) >= 100
    assert checks["start"] >= 2 and checks["warm"] >= 2
    for problem in problems:
        assert isinstance(solve_lcp(problem), LCPSolution)
    assert checks["cold"] >= 2 * len(problems)


def test_lemke_makes_no_concatenate_call(monkeypatch):
    [problem] = _nash_lcps(monkeypatch, [random_knapsack_game(0, 5, 5).game()])[-1:]
    calls = [0]
    real = np.concatenate

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counting)
    out = solve_lcp(problem)
    assert out.nodes > 50
    assert calls[0] == 0
