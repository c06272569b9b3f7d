import time

import numpy as np
import pytest

import rbgames.ip as ip_module
import rbgames.lp as lp_module
from rbgames import (
    BudgetExhausted,
    LPStatus,
    PlayerProgram,
    lattice_points,
    parametrized_objective,
    payoff,
    solve_ip,
)
from rbgames.generators import canonical_knapsack_game, random_knapsack_game

from oracles import branch_and_bound_cold

_VAL_TOL = 1e-9


def test_parametrized_objective_and_payoff():
    game = canonical_knapsack_game().game()
    blue, red = game.players
    # blue against red playing (1, 0): effective cost (-1 + 2, -2) = (1, -2)
    eff = parametrized_objective(blue, np.array([1.0, 0.0]))
    assert np.allclose(eff, [1.0, -2.0])
    assert abs(payoff(blue, np.array([0.0, 1.0]), np.array([1.0, 0.0])) - (-2.0)) < _VAL_TOL
    # red against blue playing (0, 1): effective cost (-3, -5 + 4) = (-3, -1)
    eff = parametrized_objective(red, np.array([0.0, 1.0]))
    assert np.allclose(eff, [-3.0, -1.0])


def test_best_responses_on_the_known_game():
    game = canonical_knapsack_game().game()
    blue, red = game.players
    res = solve_ip(blue, parametrized_objective(blue, np.array([1.0, 0.0])))
    assert res.status is LPStatus.OPTIMAL
    assert np.allclose(res.x, [0.0, 1.0])
    assert abs(res.value - (-2.0)) < _VAL_TOL
    res = solve_ip(red, parametrized_objective(red, np.array([0.0, 1.0])))
    assert res.status is LPStatus.OPTIMAL
    assert np.allclose(res.x, [1.0, 0.0])
    assert abs(res.value - (-3.0)) < _VAL_TOL


def test_infeasible_program():
    p = PlayerProgram(
        name="stuck",
        c=np.array([1.0]),
        C=np.zeros((0, 1)),
        A=np.array([[1.0]]),
        b=np.array([-1.0]),
        integers=(0,),
        lb=np.zeros(1),
        ub=np.ones(1),
    )
    res = solve_ip(p)
    assert res.status is LPStatus.INFEASIBLE


def test_lattice_points_enumerates_the_feasible_set():
    game = canonical_knapsack_game().game()
    blue = game.players[0]
    pts = lattice_points(blue)
    keys = {tuple(int(v) for v in p) for p in pts}
    assert keys == {(0, 0), (0, 1), (1, 0)}  # 3 x1 + 4 x2 <= 5 kills (1, 1)


def test_solver_matches_lattice_enumeration_on_seeded_knapsacks():
    # the acceptance corpus shape: random binary knapsacks, full sweep
    checked = 0
    for seed in range(500):
        n_items = 2 + seed % 11  # up to 12 variables
        game = random_knapsack_game(seed, n_items=n_items).game()
        rng = np.random.default_rng(seed + 9000)
        for p in game.players:
            opp = rng.integers(0, 2, size=p.opp_vars).astype(float)
            cost = parametrized_objective(p, opp)
            res = solve_ip(p, cost)
            pts = lattice_points(p)
            assert len(pts), "knapsack with zero capacity still contains the origin"
            best = min(float(cost @ x) for x in pts)
            assert res.status is LPStatus.OPTIMAL
            assert abs(res.value - best) < 1e-7, (seed, p.name)
            assert float(cost @ res.x) < best + 1e-7
            checked += 1
    assert checked == 1000


def test_a_node_limit_raises_budget_exhausted(monkeypatch):
    monkeypatch.setattr(ip_module, "_NODE_LIMIT", 2)
    game = random_knapsack_game(3, n_items=12).game()
    p = game.players[0]
    with pytest.raises(BudgetExhausted, match="branch-and-bound"):
        solve_ip(p)


def test_shape_validation():
    with pytest.raises(ValueError):
        PlayerProgram(
            name="bad",
            c=np.array([1.0, 2.0]),
            C=np.zeros((1, 3)),  # wrong column count
            A=np.zeros((0, 2)),
            b=np.zeros(0),
            lb=np.zeros(2),
            ub=np.ones(2),
        )
    with pytest.raises(ValueError):
        PlayerProgram(
            name="open",
            c=np.array([1.0]),
            C=np.zeros((0, 1)),
            A=np.zeros((0, 1)),
            b=np.zeros(0),
            integers=(0,),
            lb=np.zeros(1),
            ub=np.array([np.inf]),  # integer var without a finite box
        )


def test_integer_indexes_must_be_integral():
    data = dict(c=np.array([1.0, 2.0]), C=np.zeros((0, 2)), A=np.zeros((0, 2)), b=np.zeros(0))
    with pytest.raises(ValueError):
        PlayerProgram(name="frac", integers=[1.7], **data)
    assert PlayerProgram(name="whole", integers=[np.int64(1), 0.0], **data).integers == (0, 1)


def _seeded_best_responses(seeds):
    """(program, opponents) pairs: seeded knapsack players against 0/1,
    uniform and quarter-step opponents, plus one program per seed with
    integer bounds 0..3 and twice the capacity."""
    for players, items in ((2, 2), (2, 3), (2, 6), (2, 10), (3, 5), (4, 4)):
        for seed in seeds:
            game = random_knapsack_game(seed, players, items).game()
            rng = np.random.default_rng(seed)
            for p in game.players:
                yield p, rng.integers(0, 2, size=p.opp_vars).astype(float)
                yield p, rng.random(p.opp_vars)
                yield p, np.round(rng.random(p.opp_vars) * 4) / 4
            p = game.players[0]
            wide = PlayerProgram(name="wide", c=p.c, C=p.C, A=p.A.to_dense(), b=2 * p.b, integers=p.integers,
                                 lb=np.zeros(p.nvars), ub=np.full(p.nvars, 3.0))
            yield wide, rng.random(wide.opp_vars)


def test_warm_branch_and_bound_matches_the_cold_reference():
    # the solver's branch and bound gives the very status, value, point
    # and node count of the reference loop over fresh node LPs
    checked = 0
    for p, opp in _seeded_best_responses(range(40)):
        status, value, x, nodes = branch_and_bound_cold(p, opp)
        res = solve_ip(p, parametrized_objective(p, opp))
        assert res.status is status
        assert res.value == value and np.array_equal(res.x, x) and res.iterations == nodes, (p.name, opp)
        checked += 1
    assert checked == 40 * (3 * 15 + 6)  # 15 players and 6 wide programs per seed


def test_a_passed_deadline_stops_the_root_lp(monkeypatch):
    returned = []

    def recording(*args, **kwargs):
        res = lp_module.solve_lp(*args, **kwargs)
        returned.append(res)
        return res

    monkeypatch.setattr(ip_module, "solve_lp", recording)
    p = random_knapsack_game(3, n_items=12).game().players[0]
    with pytest.raises(BudgetExhausted):
        solve_ip(p, deadline=time.monotonic() - 1.0)
    assert not returned


def test_a_deadline_passing_in_a_node_lp_ends_branch_and_bound(monkeypatch):
    # the child LP that runs past the deadline raises, and solve_ip ends
    # with its own BudgetExhausted
    real = lp_module.solve_lp
    calls = [0]

    def late(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 10:
            raise BudgetExhausted("simplex ran past the deadline")
        return real(*args, **kwargs)

    monkeypatch.setattr(ip_module, "solve_lp", late)
    p = random_knapsack_game(4, n_items=12).game().players[0]  # a root and 18 child LPs
    with pytest.raises(BudgetExhausted, match="branch-and-bound"):
        solve_ip(p, deadline=time.monotonic() + 60.0)
    assert calls[0] == 10
