import time
from types import SimpleNamespace

import numpy as np
import pytest

import rbgames.cutplay as cutplay_module
import rbgames.lcp as lcp_module
import rbgames.poly as poly_module

from rbgames import (
    Algorithm,
    EqStatus,
    GameModel,
    PlayerProgram,
    SolverOptions,
    cut_and_play,
    deviation_check,
    lattice_points,
    random_knapsack_game,
    solve_game,
)
from rbgames.errors import BudgetExhausted, InfeasibleGame, NumericalFailure
from rbgames.cutplay import Branch, Cuts, Member, OuterApproximation, PlayerState, refine_region, separation_oracle
from rbgames.generators import canonical_knapsack_game, cyclic_matching_game, infeasible_game
from rbgames.poly import hull_contains, convex_hull

_KNOWN = [
    (np.array([0.0, 1.0, 1.0, 0.0]), (-2.0, -3.0)),
    (np.array([1.0, 0.0, 0.0, 1.0]), (-1.0, -5.0)),
    (np.array([2.0 / 9.0, 7.0 / 9.0, 2.0 / 5.0, 3.0 / 5.0]), (-0.2, -17.0 / 9.0)),
]


def _match_known(result, tol):
    flat = np.concatenate([s.barycenter for s in result.profile.strategies])
    for point, payoffs in _KNOWN:
        if np.max(np.abs(flat - point)) <= tol:
            return payoffs
    raise AssertionError(f"profile {flat} matches no known equilibrium")


def test_known_game_converges_to_a_true_equilibrium():
    game = canonical_knapsack_game().game()
    opts = SolverOptions(deviation_eps=3e-4, time_limit=5.0)
    result = cut_and_play(game, opts)
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    payoffs = _match_known(result, 1e-5)
    assert np.allclose(result.payoffs, payoffs, atol=1e-5)
    assert deviation_check(game, result.profile, eps=opts.deviation_eps) == []
    assert result.stats.iterations >= 1
    assert result.stats.wall_ms >= 0.0


def test_single_player_game_reduces_to_its_ip():
    solo = PlayerProgram(
        name="solo",
        c=np.array([-1.0, -2.0]),
        C=np.zeros((0, 2)),
        A=np.array([[3.0, 4.0]]),
        b=np.array([5.0]),
        integers=(0, 1),
        lb=np.zeros(2),
        ub=np.ones(2),
    )
    game = GameModel([solo])
    result = cut_and_play(game, SolverOptions())
    assert result.status is EqStatus.PNE
    assert np.allclose(result.profile.strategies[0].barycenter, [0.0, 1.0])
    assert abs(result.payoffs[0] - (-2.0)) < 1e-9


def test_infeasible_player_is_reported():
    game = infeasible_game().game()
    result = cut_and_play(game, SolverOptions())
    assert result.status is EqStatus.INFEASIBLE
    assert result.profile is None


def test_time_limit_is_respected():
    game = canonical_knapsack_game().game()
    result = cut_and_play(game, SolverOptions(time_limit=1e-4))
    assert result.status is EqStatus.TIME_LIMIT


def test_time_limit_holds_while_lemke_pivots():
    # Lemke takes 94% of this game's 4.5 s (2-core host); its last rounds
    # solve LCPs of order 550-850, and the limit falls while it pivots
    game = random_knapsack_game(9, 2, 10).game()
    start = time.monotonic()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=1.0))
    assert result.status is EqStatus.TIME_LIMIT
    assert time.monotonic() - start <= 1.5


@pytest.mark.parametrize("seed", [0, 2])
def test_small_ladder_games_end_in_an_equilibrium(seed):
    # every round's LCP has a solution, so Lemke never stalls these games
    game = random_knapsack_game(seed, 2, 4).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=5.0))
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    assert deviation_check(game, result.profile, eps=3e-4) == []


def _recording_solve_lcp(monkeypatch):
    """Route cut_and_play's LCP solves through a recorder of their pivot counts."""
    real = cutplay_module.solve_lcp
    nodes = {"returned": 0, "raised": []}

    def recorded(*args, **kwargs):
        try:
            out = real(*args, **kwargs)
        except BudgetExhausted as exc:
            nodes["raised"].append(exc.nodes)
            raise
        nodes["returned"] += out.nodes
        return out

    monkeypatch.setattr(cutplay_module, "solve_lcp", recorded)
    return nodes


def test_lcp_nodes_count_on_the_time_limit_path(monkeypatch):
    # Lemke's 300th deadline check across the run sleeps past the limit,
    # so the deadline falls while it pivots
    nodes = _recording_solve_lcp(monkeypatch)
    checks = [0]

    def monotonic():
        checks[0] += 1
        if checks[0] == 300:
            time.sleep(1.0)
        return time.monotonic()

    monkeypatch.setattr(lcp_module, "time", SimpleNamespace(monotonic=monotonic))
    game = random_knapsack_game(2, 2, 4).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=0.9))
    assert result.status is EqStatus.TIME_LIMIT
    assert len(nodes["raised"]) == 1 and nodes["raised"][0] > 0
    assert result.stats.lcp_nodes == nodes["returned"] + nodes["raised"][0] == 299


def test_lcp_nodes_count_on_the_node_limit_path(monkeypatch):
    # the 40th ratio test of the run finds no blocking row: a ray
    nodes = _recording_solve_lcp(monkeypatch)
    real = lcp_module._leaving
    tests = [0]

    def ray_on_the_40th(*args):
        tests[0] += 1
        return (-1, -1) if tests[0] == 40 else real(*args)

    monkeypatch.setattr(lcp_module, "_leaving", ray_on_the_40th)
    game = random_knapsack_game(2, 2, 4).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.lcp_nodes == nodes["returned"] == 40


def _raise_numerical_failure(*args, **kwargs):
    raise NumericalFailure("lost precision")


@pytest.mark.parametrize("owner, name", [
    (PlayerState, "apply_cuts"),
    (cutplay_module, "separation_oracle"),
    (poly_module, "solve_lp"),
], ids=["apply_cuts", "separation_oracle", "solve_lp"])
def test_numerical_failure_keeps_its_stats(monkeypatch, owner, name):
    # the cut pool, the oracle and the LPs of the refinement step
    monkeypatch.setattr(owner, name, _raise_numerical_failure)
    result = cut_and_play(canonical_knapsack_game().game(), SolverOptions())
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.iterations >= 1
    assert result.stats.lcp_nodes > 0
    assert result.stats.wall_ms > 0.0


def test_budget_exhausted_before_any_deadline_is_a_numerical_failure(monkeypatch):
    # a branch-and-bound node limit, not the clock: no time limit is set
    def exhausted(*args, **kwargs):
        raise BudgetExhausted("node limit hit")

    game = canonical_knapsack_game().game()
    for name in ("solve_ip", "deviation_check"):  # the player probe, then certification
        with monkeypatch.context() as patch:
            patch.setattr(cutplay_module, name, exhausted)
            assert cut_and_play(game, SolverOptions()).status is EqStatus.NUMERICAL_FAILURE, name


def test_enumeration_profile_cap_without_a_time_limit_is_a_numerical_failure():
    # 2^11 points per player, 2^22 profiles: past the enumeration cap
    wide = [PlayerProgram(name=name, c=-np.ones(11), C=np.zeros((11, 11)), A=np.zeros((0, 11)),
                          b=np.zeros(0), integers=tuple(range(11)), lb=np.zeros(11), ub=np.ones(11))
            for name in ("a", "b")]
    [result] = solve_game(GameModel(wide), SolverOptions(algorithm=Algorithm.FULL_ENUMERATION))
    assert result.status is EqStatus.NUMERICAL_FAILURE


def test_region_emptied_mid_run_keeps_its_stats(monkeypatch):
    def emptied(state, action):
        raise InfeasibleGame("region emptied by cuts")

    monkeypatch.setattr(cutplay_module, "refine_region", emptied)
    [result] = solve_game(canonical_knapsack_game().game(), SolverOptions())
    assert result.status is EqStatus.INFEASIBLE
    assert result.stats.iterations >= 1
    assert result.stats.wall_ms > 0.0


def test_iteration_cap_reports_numerical_failure():
    game = canonical_knapsack_game().game()
    result = cut_and_play(game, SolverOptions(max_iterations=1))
    assert result.status is EqStatus.NUMERICAL_FAILURE


def test_three_player_cycle_finds_the_mixed_point():
    game = cyclic_matching_game().game()
    result = cut_and_play(game, SolverOptions())
    assert result.status is EqStatus.MNE
    for s in result.profile.strategies:
        assert np.allclose(s.barycenter, [0.5], atol=1e-6)
    assert np.allclose(result.payoffs, [0.0, 0.0, 0.0], atol=1e-9)


def test_solve_game_dispatch():
    game = canonical_knapsack_game().game()
    full = solve_game(game, SolverOptions(algorithm=Algorithm.FULL_ENUMERATION))
    assert len(full) == 3
    single = solve_game(game, SolverOptions(algorithm=Algorithm.CUT_AND_PLAY))
    assert len(single) == 1
    assert single[0].status in (EqStatus.PNE, EqStatus.MNE)


def test_separation_oracle_cases():
    game = canonical_knapsack_game().game()
    blue = game.players[0]
    state = PlayerState(blue)
    # integral and feasible: a pure member, its own support
    action = separation_oracle(state, np.array([0.0, 1.0]))
    assert isinstance(action, Member) and action.pure
    assert np.array_equal(action.strategy.barycenter, [0.0, 1.0])
    assert [(w, p.tolist()) for w, p in action.strategy.support] == [(1.0, [0.0, 1.0])]
    # inside the strategy hull but fractional: member by convex combination
    sigma = np.array([2.0 / 9.0, 7.0 / 9.0])
    action = separation_oracle(state, sigma)
    assert isinstance(action, Member) and not action.pure
    assert np.array_equal(action.strategy.barycenter, sigma)
    weights = np.array([w for w, _ in action.strategy.support])
    atoms = np.array([p for _, p in action.strategy.support])
    assert np.all(weights > 0) and abs(weights.sum() - 1.0) < 1e-9
    assert np.array_equal(atoms, np.round(atoms))
    assert all(blue.relaxation().contains(a) for a in atoms)
    assert np.allclose(weights @ atoms, sigma, atol=1e-6)
    # relaxation vertex outside the hull: the cover cut separates it
    action = separation_oracle(state, np.array([1.0, 0.5]))
    assert isinstance(action, Cuts)
    assert any(np.allclose(pi, [1.0, 1.0]) and abs(pi0 - 1.0) < 1e-9 for pi, pi0 in action.cuts)


def test_separation_oracle_falls_back_to_branching():
    # a non-binary integer variable disables cover cuts, and without a
    # supporting cost there is no Gomory source either
    wide = PlayerProgram(
        name="wide",
        c=np.array([-1.0, -1.0]),
        C=np.zeros((0, 2)),
        A=np.array([[3.0, 4.0]]),
        b=np.array([5.0]),
        integers=(0, 1),
        lb=np.zeros(2),
        ub=np.array([2.0, 1.0]),
    )
    state = PlayerState(wide)
    action = separation_oracle(state, np.array([1.5, 0.1]), cost=None)
    assert isinstance(action, Branch)
    assert action.index == 0
    assert action.floor == 1
    before = state.region()
    refine_region(state, action)
    # the escaped point is gone and no lattice point was lost
    assert not any(piece.contains(np.array([1.5, 0.1])) for piece in state.pieces)
    for point in lattice_points(wide):
        assert any(piece.contains(point, eps=1e-9) for piece in state.pieces), point
    assert before is not None


def test_refinement_only_shrinks_regions():
    # regions must be nested across iterations: every later region is a
    # subset of every earlier one (sampled), and lattice points survive
    game = canonical_knapsack_game().game()
    history = [[] for _ in game.players]
    rng = np.random.default_rng(3)
    samples = rng.random((60, 2)) * 1.2 - 0.1

    def watcher(outer, iteration):
        for i, state in enumerate(outer.states):
            history[i].append(list(state.pieces))

    result = cut_and_play(game, SolverOptions(), watcher=watcher)
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    for i, p in enumerate(game.players):
        pure = lattice_points(p)
        for t, pieces in enumerate(history[i]):
            hull = convex_hull(pieces)
            for point in pure:
                assert hull_contains(hull, point), (i, t, point)
            if t == 0:
                continue
            prev = convex_hull(history[i][t - 1])
            for x in samples:
                if hull_contains(hull, x):
                    assert hull_contains(prev, x), (i, t, x)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(algorithm="simplex")
    with pytest.raises(ValueError):
        SolverOptions(deviation_eps=0.0)
    with pytest.raises(ValueError):
        SolverOptions(time_limit=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


def test_outer_approximation_starts_at_the_relaxations():
    game = canonical_knapsack_game().game()
    outer = OuterApproximation(game)
    for state, p in zip(outer.states, game.players):
        assert len(state.pieces) == 1
        region = state.region()
        assert region.contains(np.array([1.0, 0.5]))  # LP vertex, not a strategy
