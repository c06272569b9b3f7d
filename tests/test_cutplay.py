import importlib
import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import rbgames.cutplay as cutplay_module
import rbgames.game as game_module
import rbgames.ip as ip_module
import rbgames.lcp as lcp_module

from rbgames import (
    Algorithm,
    EqStatus,
    FEAS_TOL,
    GameModel,
    LCP,
    PlayerProgram,
    SolverOptions,
    cut_and_play,
    deviation_check,
    full_enumeration,
    lattice_points,
    random_knapsack_game,
    seeded_rng,
    solve_game,
)
from rbgames.errors import BudgetExhausted, InfeasibleGame, NumericalFailure
from rbgames.cutplay import Cuts, Member, PlayerState, refine_region, separation_oracle
from rbgames.enumeration import degenerate_bimatrix
from rbgames.generators import canonical_knapsack_game, cyclic_matching_game, infeasible_game, nondegenerate_seeds
from rbgames.poly import hull_contains, convex_hull

from oracles import RoundSpy, murty_in_scale, separation_oracle_reference

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
    assert result.stats.reason is None
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
    assert "emptied by its own rows" in result.stats.reason


def test_time_limit_is_respected():
    game = canonical_knapsack_game().game()
    result = cut_and_play(game, SolverOptions(time_limit=1e-4))
    assert result.status is EqStatus.TIME_LIMIT
    assert result.stats.reason == "deadline"


def test_time_limit_holds_while_lemke_pivots():
    # fourteen players: the first round's LCP has order 574 and takes
    # about 5 s (2-core host), so the limit falls while Lemke pivots in it
    game = random_knapsack_game(0, 14, 10).game()
    start = time.monotonic()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=1.0))
    assert result.status is EqStatus.TIME_LIMIT
    assert time.monotonic() - start <= 1.5
    assert result.stats.iterations == 1 and result.stats.lcp_nodes > 0
    assert result.stats.reason == "deadline"


@pytest.mark.parametrize("seed", [0, 2])
def test_small_ladder_games_end_in_an_equilibrium(seed):
    # every round's LCP has a solution, so Lemke never stalls these games
    game = random_knapsack_game(seed, 2, 4).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=5.0))
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    assert deviation_check(game, result.profile, eps=3e-4) == []


def test_ten_players_end_in_an_equilibrium():
    # 10x10 seed 0: nine rounds, their LCPs of order up to 433 solved in
    # 29,471 pivots in all (about 5 s on a 2-core host): 28,402 in three
    # cold solves, each under Lemke's pivot cap, and 1,069 in the eight
    # warm attempts, two of which ended on a ray and restarted cold
    game = random_knapsack_game(0, 10, 10).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=120.0))
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
    # Lemke's 35th deadline check across the run sleeps past the limit,
    # so the deadline falls while it pivots in the last of the game's
    # three rounds, after 29 pivots in the first, 3 in the second and 2
    # in the third (37 in all without the limit)
    nodes = _recording_solve_lcp(monkeypatch)
    checks = [0]

    def monotonic():
        checks[0] += 1
        if checks[0] == 35:
            time.sleep(1.0)
        return time.monotonic()

    monkeypatch.setattr(lcp_module, "time", SimpleNamespace(monotonic=monotonic))
    game = random_knapsack_game(2, 2, 4).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=0.9))
    assert result.status is EqStatus.TIME_LIMIT
    assert len(nodes["raised"]) == 1 and nodes["raised"][0] > 0
    assert result.stats.reason == "deadline"
    assert result.stats.lcp_nodes == nodes["returned"] + nodes["raised"][0] == 34
    assert result.stats.iterations == 3 and result.stats.warm_rounds == 2


def test_a_deadline_in_a_warm_attempt_ends_time_limit_with_its_pivots_counted(monkeypatch):
    # 3x5 seed 3 solves its first round cold in 79 pivots and its second
    # warm in 15; the warm attempt's 10th deadline check sleeps past the
    # limit, so the run ends TimeLimit within the slack of a deadline
    # check, counting the warm attempt's 9 pivots and the warm round
    real = cutplay_module.solve_lcp
    calls = []

    def recorded(problem, deadline=None, start=None):
        calls.append([start is not None, 0, None])
        try:
            out = real(problem, deadline, start)
        except BudgetExhausted as exc:
            calls[-1][2] = exc.nodes
            raise
        calls[-1][1] = out.nodes
        return out

    def monotonic():
        if calls and calls[-1][0]:
            calls[-1][1] += 1
            if calls[-1][1] == 10:
                time.sleep(1.0)
        return time.monotonic()

    monkeypatch.setattr(cutplay_module, "solve_lcp", recorded)
    monkeypatch.setattr(lcp_module, "time", SimpleNamespace(monotonic=monotonic))
    game = random_knapsack_game(3, 3, 5).game()
    start = time.monotonic()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=0.9))
    assert time.monotonic() - start <= 0.9 + 0.5
    assert result.status is EqStatus.TIME_LIMIT and result.stats.reason == "deadline"
    assert calls == [[False, 79, None], [True, 10, 9]]
    assert result.stats.lcp_nodes == 79 + 9
    assert result.stats.warm_rounds == 1 and result.stats.cold_restarts == 0


def test_a_warm_attempt_that_ends_on_a_ray_restarts_cold(monkeypatch):
    # stall game 2x8 seed 11 (the window at shift 2): the warm attempt of
    # its third round ends on a ray, which proves nothing, so solve_lcp
    # restarts cold on the same LCP, solves it and says so; the game ends
    # MNE with a clean deviation check, and every attempt's pivots count
    real, real_attempt = cutplay_module.solve_lcp, lcp_module._attempt
    calls, attempts = [], []

    def recorded(problem, deadline=None, start=None):
        out = real(problem, deadline, start)
        calls.append((start is not None, out.restarted, out.nodes))
        return out

    def attempt(problem, basis, cap, deadline, spent=0):
        out = real_attempt(problem, basis, cap, deadline, spent)
        attempts.append((problem.order, cap, getattr(out, "reason", None), out.nodes - spent))
        return out

    monkeypatch.setattr(cutplay_module, "solve_lcp", recorded)
    monkeypatch.setattr(lcp_module, "_attempt", attempt)
    game = random_knapsack_game(11, 2, 8).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    assert result.status is EqStatus.MNE
    assert deviation_check(game, result.profile, eps=3e-4) == []
    assert [(warm, restarted) for warm, restarted, _ in calls] == [(False, False), (True, False), (True, True)]
    # the third round: a warm ray within the order, then the cold path
    assert [(cap, reason) for _, cap, reason, _ in attempts[2:]] == [(70, "ray"), (200 + 30 * 70, None)]
    assert attempts[2][0] == attempts[3][0] == 70 and 0 < attempts[2][3] < 70
    assert calls[2][2] == attempts[2][3] + attempts[3][3]
    assert result.stats.iterations == 3 and result.stats.warm_rounds == 2 and result.stats.cold_restarts == 1
    assert result.stats.lcp_nodes == sum(nodes for *_, nodes in calls) == 125


def test_a_deadline_in_a_cold_restart_ends_time_limit_with_the_warm_pivots_counted(monkeypatch):
    # the same game, with the clock past the limit when its third round
    # restarts cold: that restart's first deadline check raises, carrying
    # the 12 pivots of the warm attempt that ended on a ray, and the run
    # counts them after the 47 + 17 of its first two rounds
    real_attempt = lcp_module._attempt

    def attempt(problem, basis, cap, deadline, spent=0):
        if spent:
            time.sleep(0.6)
        return real_attempt(problem, basis, cap, deadline, spent)

    monkeypatch.setattr(lcp_module, "_attempt", attempt)
    nodes = _recording_solve_lcp(monkeypatch)
    result = cut_and_play(random_knapsack_game(11, 2, 8).game(), SolverOptions(deviation_eps=3e-4, time_limit=0.5))
    assert result.status is EqStatus.TIME_LIMIT and result.stats.reason == "deadline"
    assert nodes == {"returned": 47 + 17, "raised": [12]}
    assert result.stats.lcp_nodes == 47 + 17 + 12
    assert result.stats.iterations == 3 and result.stats.warm_rounds == 2 and result.stats.cold_restarts == 0


def test_lcp_nodes_count_on_the_node_limit_path(monkeypatch):
    # the 20th ratio test of the run, in the cold first round, finds no
    # blocking row: a ray
    nodes = _recording_solve_lcp(monkeypatch)
    real = lcp_module._leaving
    tests = [0]

    def ray_on_the_20th(*args):
        tests[0] += 1
        return -1 if tests[0] == 20 else real(*args)

    monkeypatch.setattr(lcp_module, "_leaving", ray_on_the_20th)
    game = random_knapsack_game(2, 2, 4).game()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.lcp_nodes == nodes["returned"] == 20
    assert result.stats.reason == "ray"


def _raise_numerical_failure(*args, **kwargs):
    raise NumericalFailure("lost precision")


@pytest.mark.parametrize("owner, name, game", [
    (PlayerState, "apply_cuts", canonical_knapsack_game),
    (cutplay_module, "separation_oracle", canonical_knapsack_game),
    # the oracle's first LP
    (game_module, "solve_lp", lambda: random_knapsack_game(2, 2, 4)),
], ids=["apply_cuts", "separation_oracle", "solve_lp"])
def test_numerical_failure_keeps_its_stats(monkeypatch, owner, name, game):
    # the cut pool, the oracle and the LPs behind its verdicts
    monkeypatch.setattr(owner, name, _raise_numerical_failure)
    result = cut_and_play(game().game(), SolverOptions())
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.iterations >= 1
    assert result.stats.lcp_nodes > 0
    assert result.stats.wall_ms > 0.0
    assert result.stats.reason == "lost precision"


def _pivot_cap(monkeypatch):
    # every round solves an LCP on which Lemke takes 2^9 pivots, past
    # its cap of 200 + 30 * 9
    real = cutplay_module.solve_lcp
    capped = LCP(*murty_in_scale(9))
    monkeypatch.setattr(cutplay_module, "solve_lcp",
                        lambda problem, deadline=None, start=None: real(capped, deadline))


def _residuals(monkeypatch):
    monkeypatch.setattr(lcp_module, "COMPLEMENTARITY_TOL", -1.0)


def _cut_keeps_the_point(monkeypatch):
    # the oracle LP of the game's first round returns the null cut
    def null_cut(points, sigma, deadline=None):
        return None, np.zeros(points.shape[1])

    monkeypatch.setattr(cutplay_module, "support_from_points", null_cut)


def _deviation(monkeypatch):
    monkeypatch.setattr(cutplay_module, "deviation_check", lambda *args, **kwargs: [(0, 1.0)])


@pytest.mark.parametrize("fault, reason", [
    (_pivot_cap, "pivot cap"),
    (_residuals, "LCP residuals out of tolerance"),
    (_cut_keeps_the_point, "player p1: the separation LP's cut does not remove the point"),
    (_deviation, "deviation"),
], ids=["pivot cap", "residuals", "cut", "deviation"])
def test_each_numerical_failure_says_why(monkeypatch, fault, reason):
    fault(monkeypatch)
    result = cut_and_play(random_knapsack_game(2, 2, 4).game(), SolverOptions(deviation_eps=3e-4))
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.reason == reason
    assert result.stats.iterations >= 1


def test_budget_exhausted_before_any_deadline_is_a_numerical_failure(monkeypatch):
    # a branch-and-bound node limit, not the clock: no time limit is set
    def exhausted(*args, **kwargs):
        raise BudgetExhausted("node limit hit")

    monkeypatch.setattr(cutplay_module, "deviation_check", exhausted)  # certification
    result = cut_and_play(canonical_knapsack_game().game(), SolverOptions())
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.reason == "node limit hit"


def test_enumeration_profile_cap_without_a_time_limit_is_a_numerical_failure():
    # 2^11 points per player, 2^22 profiles: past the enumeration cap
    wide = [PlayerProgram(name=name, c=-np.ones(11), C=np.zeros((11, 11)), A=np.zeros((0, 11)),
                          b=np.zeros(0), integers=tuple(range(11)), lb=np.zeros(11), ub=np.ones(11))
            for name in ("a", "b")]
    [result] = solve_game(GameModel(wide), SolverOptions(algorithm=Algorithm.FULL_ENUMERATION))
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.reason == f"profile count exceeds {1 << 20}"


@pytest.mark.parametrize("make, status, reason", [
    (infeasible_game, EqStatus.INFEASIBLE, "player 0 (stuck) has an empty feasible set"),
    (cyclic_matching_game, EqStatus.NO_EQUILIBRIUM_FOUND, "enumeration found no equilibrium"),
], ids=["infeasible", "none-found"])
def test_each_enumeration_exit_without_an_equilibrium_says_why(make, status, reason):
    [result] = solve_game(make().game(), SolverOptions(algorithm=Algorithm.FULL_ENUMERATION))
    assert result.status is status and result.profile is None
    assert result.stats.reason == reason


def test_region_emptied_mid_run_keeps_its_stats(monkeypatch):
    def emptied(state, action):
        raise InfeasibleGame("region emptied by cuts")

    monkeypatch.setattr(cutplay_module, "refine_region", emptied)
    [result] = solve_game(canonical_knapsack_game().game(), SolverOptions())
    assert result.status is EqStatus.INFEASIBLE
    assert result.stats.reason == "region emptied by cuts"
    assert result.stats.iterations >= 1
    assert result.stats.wall_ms > 0.0


def test_iteration_cap_reports_numerical_failure(monkeypatch):
    monkeypatch.setattr(cutplay_module, "_MAX_ROUNDS", 1)
    game = canonical_knapsack_game().game()
    result = cut_and_play(game, SolverOptions())
    assert result.status is EqStatus.NUMERICAL_FAILURE
    assert result.stats.reason == "round cap"


def test_three_player_cycle_finds_the_mixed_point():
    game = cyclic_matching_game().game()
    result = cut_and_play(game, SolverOptions())
    assert result.status is EqStatus.MNE
    for s in result.profile.strategies:
        assert np.allclose(s.barycenter, [0.5], atol=1e-6)
    assert np.allclose(result.payoffs, [0.0, 0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("seed", [1, 373, 528, 1443])
def test_cut_and_play_lands_on_an_enumerated_equilibrium_of_2x4_games(seed):
    # nondegenerate 2x4 knapsack games with 9 to 12 pure strategies a
    # side; each has a mixed equilibrium, and three of them end on one
    game = random_knapsack_game(seed, 2, 4).game()
    assert not degenerate_bimatrix(game)
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=20.0))
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    flat = np.concatenate([s.barycenter for s in result.profile.strategies])
    enumerated = solve_game(game, SolverOptions(algorithm=Algorithm.FULL_ENUMERATION))
    assert any(EqStatus.MNE is r.status for r in enumerated)
    gaps = [np.linalg.norm(flat - np.concatenate([s.barycenter for s in r.profile.strategies])) for r in enumerated]
    assert min(gaps) <= 1e-6


def _rebounded_game(seed, n_items, lo, hi):
    """``random_knapsack_game(seed, 2, n_items)`` with item bounds lo..hi
    and its one knapsack row."""
    return GameModel([PlayerProgram(name=p.name, c=p.c, C=p.C, A=p.A.to_dense(), b=p.b, integers=p.integers,
                                    lb=np.full(p.nvars, lo), ub=np.full(p.nvars, hi))
                      for p in random_knapsack_game(seed, 2, n_items).game().players])


def test_cut_and_play_lands_on_an_enumerated_equilibrium_of_general_integer_games():
    # with no cover cut available, the exact cuts do all of the separation
    compared = cuts = 0
    for n_items in (2, 3):
        for seed in range(100):
            game = _rebounded_game(seed, n_items, 0.0, 2.0)
            if degenerate_bimatrix(game):
                continue
            result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=20.0))
            assert result.status in (EqStatus.PNE, EqStatus.MNE), (n_items, seed)
            flat = np.concatenate(result.profile.barycenters())
            gaps = [np.linalg.norm(flat - np.concatenate(r.profile.barycenters())) for r in full_enumeration(game)]
            assert min(gaps) <= 1e-6, (n_items, seed)
            compared += 1
            cuts += result.stats.cuts
    assert compared >= 60 and cuts >= 60, (compared, cuts)


def test_cut_and_play_lands_on_an_enumerated_equilibrium_of_negative_bound_games():
    # every box has a nonzero lower corner, so the Nash LCP's q carries C' lo
    compared = mixed = 0
    for seed in range(1000):
        game = _rebounded_game(seed, 2, -1.0, 1.0)
        if degenerate_bimatrix(game):
            continue
        result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=20.0))
        assert result.status in (EqStatus.PNE, EqStatus.MNE), seed
        flat = np.concatenate(result.profile.barycenters())
        gaps = [np.linalg.norm(flat - np.concatenate(r.profile.barycenters())) for r in full_enumeration(game)]
        assert min(gaps) <= 1e-6, seed
        compared += 1
        mixed += result.status is EqStatus.MNE
    assert compared >= 50 and mixed >= 5, (compared, mixed)


def _mixed_row_game(seed):
    """``random_knapsack_game(seed, 2, 3)`` with a second row per player,
    a x <= r with signs (+, -, +), magnitudes 1-3 and r in 0-2, drawn
    from ``seeded_rng(seed)``.  No cover cut applies to that row."""
    rng = seeded_rng(seed)
    players = []
    for p in random_knapsack_game(seed, 2, 3).game().players:
        row = np.array([1.0, -1.0, 1.0]) * rng.integers(1, 4, size=3)
        players.append(PlayerProgram(name=p.name, c=p.c, C=p.C, A=np.vstack([p.A.to_dense(), row]),
                                     b=np.append(p.b, rng.integers(0, 3)), integers=p.integers, lb=p.lb, ub=p.ub))
    return GameModel(players)


def test_cut_and_play_lands_on_an_enumerated_equilibrium_of_games_with_a_mixed_sign_row(monkeypatch):
    # the first 40 nondegenerate seeds from 0, no seed skipped otherwise
    real_support, lp_calls = cutplay_module.support_from_points, []

    def support(*args, **kwargs):
        lp_calls.append(1)
        return real_support(*args, **kwargs)

    monkeypatch.setattr(cutplay_module, "support_from_points", support)
    compared, seed, cuts = 0, 0, 0
    while compared < 40:
        game = _mixed_row_game(seed)
        if not degenerate_bimatrix(game):
            result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=20.0))
            assert result.status in (EqStatus.PNE, EqStatus.MNE), seed
            flat = np.concatenate(result.profile.barycenters())
            gaps = [np.linalg.norm(flat - np.concatenate(r.profile.barycenters())) for r in full_enumeration(game)]
            assert min(gaps) <= 1e-6, seed
            compared += 1
            cuts += result.stats.cuts
        seed += 1
    assert lp_calls and cuts, (len(lp_calls), cuts)


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


def test_the_wide_player_gets_one_exact_cut():
    # a non-binary integer variable disables cover cuts, so the separation
    # LP's dual cuts the point off the hull of the lattice
    # {(0, 0), (1, 0), (0, 1)}
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
    sigma = np.array([1.5, 0.1])
    assert state.region().contains(sigma)
    action = separation_oracle(state, sigma)
    assert isinstance(action, Cuts) and len(action.cuts) == 1
    [(pi, pi0)] = action.cuts
    assert float(pi @ sigma) > pi0 + 0.1
    refine_region(state, action)
    # the point is gone, no lattice point was lost, and the region is
    # still one polyhedron
    assert len(state.pieces) == 1
    assert not state.region().contains(sigma)
    for point in lattice_points(wide):
        assert state.region().contains(point, eps=1e-9), point


def test_refinement_only_shrinks_regions(monkeypatch):
    # regions must be nested across rounds, from the relaxations of the
    # first: every later region is a subset of every earlier one
    # (sampled), and lattice points survive
    game = canonical_knapsack_game().game()
    rng = np.random.default_rng(3)
    samples = rng.random((60, 2)) * 1.2 - 0.1

    spy = RoundSpy(monkeypatch)
    result = cut_and_play(game, SolverOptions())
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    assert len(spy.rounds) == result.stats.iterations >= 2
    for region, p in zip(spy.rounds[0][1], game.players):  # the first round's are the relaxations
        relaxation = p.relaxation()
        assert all(np.array_equal(getattr(region, f), getattr(relaxation, f)) for f in ("A", "b", "lb", "ub"))
    history = [[[regions[i]] for _, regions in spy.rounds] for i in range(len(game.players))]
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


@pytest.mark.parametrize("field", ["deviation_eps", "time_limit"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_options_reject_non_finite_tolerance_and_time_limit(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        SolverOptions(**{field: value})


def test_outer_approximation_starts_at_the_relaxations():
    game = canonical_knapsack_game().game()
    for p in game.players:
        state = PlayerState(p)
        assert len(state.pieces) == 1
        region = state.region()
        assert region.contains(np.array([1.0, 0.5]))  # LP vertex, not a strategy


# -- what the start-of-solve probe IP used to decide, decided without it ----


def _record_solve_ip(monkeypatch):
    """Names of the functions that call solve_ip, one entry per call,
    through every module of the package that binds it.  A call made by
    ``best_response`` names the function that called it."""
    real, callers = ip_module.solve_ip, []

    def recorded(*args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code is ip_module.best_response.__code__:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rbgames" and getattr(module, "solve_ip", None) is real:
            monkeypatch.setattr(module, "solve_ip", recorded)
    return callers


def test_infeasible_player_ends_before_the_first_round_without_an_ip(monkeypatch):
    callers = _record_solve_ip(monkeypatch)
    result = cut_and_play(infeasible_game().game(), SolverOptions())
    assert result.status is EqStatus.INFEASIBLE
    assert result.stats.iterations == 0
    assert callers == []


def test_player_without_an_integer_point_is_infeasible():
    # 2x <= 1 and -2x <= -1 leave only x = 1/2: the relaxation is not
    # empty, but no binary x satisfies both rows
    half = PlayerProgram(name="half", c=np.array([1.0]), C=np.zeros((0, 1)), A=np.array([[2.0], [-2.0]]),
                         b=np.array([1.0, -1.0]), integers=(0,), lb=np.zeros(1), ub=np.ones(1))
    result = cut_and_play(GameModel([half]), SolverOptions())
    assert result.status is EqStatus.INFEASIBLE
    assert result.profile is None
    assert result.stats.wall_ms > 0.0


def test_player_without_an_integer_point_past_the_lattice_cap_is_infeasible(monkeypatch):
    # 2^17 binary points, past the oracle's cap, so no lattice is
    # enumerated; 2x0 + 2x1 = 1 admits the LP point but no integer one.
    # The player's IP decides this in the first round, before cuts or
    # branching could empty the region, so one round is enough
    n = 17
    A = np.zeros((2, n))
    A[0, :2], A[1, :2] = 2.0, -2.0
    wide = PlayerProgram(name="wide", c=np.ones(n), C=np.zeros((0, n)), A=A, b=np.array([1.0, -1.0]),
                         integers=tuple(range(n)), lb=np.zeros(n), ub=np.ones(n))
    callers = _record_solve_ip(monkeypatch)
    monkeypatch.setattr(cutplay_module, "_MAX_ROUNDS", 1)
    result = cut_and_play(GameModel([wide]), SolverOptions())
    assert result.status is EqStatus.INFEASIBLE
    assert result.stats.iterations == 1
    assert callers == ["pure_points"]


def test_a_player_past_the_lattice_cap_is_certified_by_branch_and_bound():
    # 2^17 binary points a player, past the oracle's cap, at seeds 0-2:
    # pricing proves every cut, and certification solves each best
    # response by branch and bound
    for seed in range(3):
        game = random_knapsack_game(seed, 2, 17).game()
        result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=30.0))
        assert result.status in (EqStatus.PNE, EqStatus.MNE), seed
        assert deviation_check(game, result.profile, eps=3e-4) == [], seed


def test_unbounded_player_raises_a_value_error_naming_it():
    drift = PlayerProgram(name="drift", c=np.array([-1.0, 0.0]), C=np.zeros((0, 2)), A=np.array([[0.0, 1.0]]),
                          b=np.array([1.0]), integers=(1,), lb=np.zeros(2), ub=np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="drift"):
        cut_and_play(GameModel([drift]), SolverOptions())


def _with_a_continuous_variable(game, i):
    """The game with player i's first variable made continuous, so that
    its lattice is not enumerated."""
    players = list(game.players)
    p = players[i]
    players[i] = PlayerProgram(name=p.name, c=p.c, C=p.C, A=p.A.to_dense(), b=p.b, integers=p.integers[1:],
                               lb=p.lb, ub=p.ub)
    return GameModel(players)


def test_a_mixed_integer_player_is_certified_by_column_generation(monkeypatch):
    # player 1's lattice is not enumerated, so its mixed strategy is
    # written over the working set of integer points that pricing grew
    game = _with_a_continuous_variable(random_knapsack_game(2, 2, 4).game(), 1)
    verdicts = []
    real = cutplay_module.separation_oracle

    def recording(state, sigma):
        verdict = real(state, sigma)
        if isinstance(verdict, Member) and state.lattice is None and not verdict.pure:
            verdicts.append((state.program, list(state.program.integers), len(state.points), verdict.strategy))
        return verdict

    monkeypatch.setattr(cutplay_module, "separation_oracle", recording)
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    assert deviation_check(game, result.profile, eps=3e-4) == []
    assert verdicts
    for program, ints, grown, strategy in verdicts:
        assert grown > 1
        assert abs(sum(w for w, _ in strategy.support) - 1.0) <= 1e-9
        assert np.allclose(sum(w * pt for w, pt in strategy.support), strategy.barycenter, atol=1e-6)
        for _, pt in strategy.support:
            assert program.relaxation().contains(pt)
            assert np.allclose(pt[ints], np.round(pt[ints]), atol=1e-9, rtol=0)


def _with_an_lp_boxed_variable(game, i):
    """The game with player i's first variable made continuous with no
    declared upper bound, bounded instead by the rows x0 + x1 <= 3/2 and
    x0 - x1 <= 1/2.  Its box is found by LPs, at the fractional
    x1 = 1/2, while no point with an integral x1 has x0 above 1/2, so a
    cut can shrink the box LPs would find."""
    players = list(game.players)
    p = players[i]
    ub = p.ub.copy()
    ub[0] = np.inf
    rows = np.zeros((2, p.nvars))
    rows[:, :2] = [[1.0, 1.0], [1.0, -1.0]]
    players[i] = PlayerProgram(name=p.name, c=p.c, C=p.C, A=np.vstack([p.A.to_dense(), rows]),
                               b=np.concatenate([p.b, [1.5, 0.5]]), integers=p.integers[1:], lb=p.lb, ub=ub)
    return GameModel(players)


@pytest.mark.parametrize("seed, items", [(7, 2), (17, 3)], ids=["2x2-seed7", "2x3-seed17"])
def test_an_lp_boxed_player_keeps_its_first_box_and_every_round_borders(monkeypatch, seed, items):
    # player 1's box comes from LPs; every round after the first borders
    # the last on the first round's box, also where the box LPs would
    # find for the cut region has shrunk, and the run ends certified
    game = _with_an_lp_boxed_variable(random_knapsack_game(seed, 2, items).game(), 1)
    rounds = []
    real = cutplay_module.build_nash_lcp

    def recorded(game, regions, last=None):
        out = real(game, regions, last)
        rounds.append((regions, last, *out))
        return out

    monkeypatch.setattr(cutplay_module, "build_nash_lcp", recorded)
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    assert deviation_check(game, result.profile, eps=3e-4) == []
    assert len(rounds) == result.stats.iterations >= 3  # two cut rounds at least
    assert rounds[0][1] is None and result.stats.warm_rounds == len(rounds) - 1
    first = rounds[0][3]
    assert game.players[1].ub[0] == np.inf and 0.5 < first.highs[1][0] <= 1.0  # found by LPs
    shrunk = 0
    for (_, _, prev, _), (regions, last, problem, index_map) in zip(rounds, rounds[1:]):
        assert last[0] is prev
        n = prev.order
        assert np.array_equal(problem.M[:n, :n], prev.M) and np.array_equal(problem.q[:n], prev.q)
        for got, want in ((index_map.lows, first.lows), (index_map.highs, first.highs)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        shrunk += regions[1].bounding_box()[1][0] < first.highs[1][0]
    assert shrunk


@pytest.mark.parametrize("make, ips", [
    (lambda: canonical_knapsack_game().game(), []),
    (lambda: cyclic_matching_game().game(), []),
    (lambda: random_knapsack_game(2, 2, 4).game(), []),
    (lambda: random_knapsack_game(0, 3, 3).game(), []),
    (lambda: _with_a_continuous_variable(canonical_knapsack_game().game(), 1),
     ["pure_points"] + ["separation_oracle"] * 2 + ["deviation_check"]),
    (lambda: _with_a_continuous_variable(random_knapsack_game(0, 3, 3).game(), 2),
     ["pure_points"] + ["separation_oracle"] * 3 + ["deviation_check"]),
], ids=["canonical", "cyclic", "2x4-seed2", "3x3-seed0", "canonical-continuous", "3x3-seed0-continuous"])
def test_each_player_ip_is_solved_once_at_certification(monkeypatch, make, ips):
    # certification solves each player's best-response problem once: on
    # the lattice for an enumerated player, with no IP, and by branch and
    # bound for the player with a continuous variable, whose other IPs
    # are the oracle's: the proof that it has an integer point, which
    # seeds its working set, and the pricing of each cut direction
    callers = _record_solve_ip(monkeypatch)
    result = cut_and_play(make(), SolverOptions(deviation_eps=3e-4))
    assert result.status in (EqStatus.PNE, EqStatus.MNE)
    assert callers == ips


# -- the oracle decides Cuts before its LP only when the LP cannot
#    accept the point ----------------------------------------------------------


def _same_verdict(got, want):
    """The same verdict: a Member with the same pure flag and barycenter,
    or bitwise the same cuts."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, Member):
        assert got.pure == want.pure
        assert np.array_equal(got.strategy.barycenter, want.strategy.barycenter)
    else:
        assert len(got.cuts) == len(want.cuts)
        for (pi1, c1), (pi2, c2) in zip(got.cuts, want.cuts):
            assert np.array_equal(pi1, pi2) and c1 == c2


def _corpus_and_ladder_games():
    games = [random_knapsack_game(s, 2, 2) for s in nondegenerate_seeds(2, 16)]
    games += [random_knapsack_game(s, 2, 3) for s in nondegenerate_seeds(3, 8)]
    games += [random_knapsack_game(s, p, m) for p, m, s in ((2, 6, 0), (3, 3, 0), (4, 4, 0), (2, 4, 2))]
    return [g.game() for g in games]


def _certifies(member, points, tol=1e-12):
    """The Member's weights are positive, sum to one, sit on the given
    pure strategies and reproduce its barycenter within tol in L1."""
    weights = np.array([w for w, _ in member.strategy.support])
    atoms = np.array([pt for _, pt in member.strategy.support])
    assert np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-12
    assert all(any(np.array_equal(atom, pt) for pt in points) for atom in atoms)
    assert np.abs(weights @ atoms - member.strategy.barycenter).sum() <= tol


def test_separation_oracle_matches_the_support_lp_first_order(monkeypatch):
    # the one LP, behind the cover cuts, decides every verdict and cut of
    # the two-LP reference; its supports reproduce sigma to round-off
    real_oracle, real_support = cutplay_module.separation_oracle, cutplay_module.support_from_points
    tally = {"calls": 0, "support": 0, "cuts_without_lp": 0, "mixed": 0}

    def support(*args, **kwargs):
        tally["support"] += 1
        return real_support(*args, **kwargs)

    def compared(state, sigma):
        want = separation_oracle_reference(state, sigma)
        before = tally["support"]
        got = real_oracle(state, sigma)
        _same_verdict(got, want)
        if isinstance(got, Member):
            _certifies(got, [got.strategy.barycenter] if got.pure else state.pure_points())
            tally["mixed"] += not got.pure
        tally["calls"] += 1
        tally["cuts_without_lp"] += isinstance(got, Cuts) and tally["support"] == before
        return got

    monkeypatch.setattr(cutplay_module, "support_from_points", support)
    monkeypatch.setattr(cutplay_module, "separation_oracle", compared)
    for game in _corpus_and_ladder_games():
        result = cut_and_play(game, SolverOptions(deviation_eps=3e-4))
        assert result.status in (EqStatus.PNE, EqStatus.MNE)
    # cover cuts decided some calls, the LP others, some of them Members
    assert tally["cuts_without_lp"] > 0 and tally["support"] > 0 and tally["mixed"] > 0, tally


def _knapsack_state():
    # blue's row 3x + 4y <= 5 admits the cover x + y <= 1
    return PlayerState(canonical_knapsack_game().game().players[0])


def test_cover_cut_past_the_margin_decides_without_the_support_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("support_from_points was called")

    monkeypatch.setattr(cutplay_module, "support_from_points", no_lp)
    # a relaxation vertex, and a point 1.5e-7 outside the hull in L1
    for sigma in (np.array([1.0, 0.5]), _past_the_cover(1.5e-7)):
        action = separation_oracle(_knapsack_state(), sigma)
        assert isinstance(action, Cuts)
        assert any(np.array_equal(pi, [1.0, 1.0]) and pi0 == 1.0 for pi, pi0 in action.cuts)


def _oracle_with_lp_calls(monkeypatch, sigma):
    """(verdict, oracle LPs run) at a point of blue's."""
    real_support, calls = cutplay_module.support_from_points, []

    def support(*args, **kwargs):
        calls.append(1)
        return real_support(*args, **kwargs)

    monkeypatch.setattr(cutplay_module, "support_from_points", support)
    return separation_oracle(_knapsack_state(), sigma), len(calls)


def _past_the_cover(violation):
    # on the line x - y = 1/2, with x + y = 1 + violation; the hull of
    # blue's lattice {(0, 0), (1, 0), (0, 1)} is that far away in L1
    return np.array([0.75, 0.25]) + violation / 2.0


def test_violated_cover_cut_inside_the_lp_tolerance_is_a_member(monkeypatch):
    # the cover x + y <= 1 is violated, but within FEAS_TOL, the L1
    # distance up to which the LP accepts a member
    sigma = _past_the_cover(0.5e-7)
    got, lps = _oracle_with_lp_calls(monkeypatch, sigma)
    assert isinstance(got, Member) and not got.pure and lps == 1
    _certifies(got, _knapsack_state().pure_points(), tol=FEAS_TOL)


@pytest.mark.parametrize("scale, member, lps", [(0.999, True, 1), (1.0, True, 1), (1.001, False, 0)],
                         ids=["below-margin", "at-margin", "above-margin"])
def test_separation_oracle_near_the_margin_matches_the_old_order(monkeypatch, scale, member, lps):
    # the margin is FEAS_TOL: the cover cut decides past it with no LP,
    # and the LP run first, as in the old order, gives the same verdict
    sigma = _past_the_cover(scale * FEAS_TOL)
    got, ran = _oracle_with_lp_calls(monkeypatch, sigma)
    support, pi = game_module.support_from_points(_knapsack_state().pure_points(), sigma)
    assert isinstance(got, Member) == member == (support is not None)
    assert (pi is None) == member and ran == lps
    if member:
        assert [(w, pt.tolist()) for w, pt in got.strategy.support] == [(w, pt.tolist()) for w, pt in support]
    else:
        assert [(a.tolist(), a0) for a, a0 in got.cuts] == [([1.0, 1.0], 1.0)]


def _lean():
    """A binary player with the one row x0 - x1 <= 0, which has no cover."""
    return PlayerProgram(name="lean", c=np.zeros(2), C=np.zeros((0, 2)), A=np.array([[1.0, -1.0]]),
                         b=np.zeros(1), integers=(0, 1), lb=np.zeros(2), ub=np.ones(2))


@pytest.mark.parametrize("distance", [1.5e-7, 2e-7, 2.9e-7])
def test_a_point_just_past_the_member_threshold_gets_its_exact_cut(distance):
    # x0 - x1 <= 0 has a negative coefficient, so no cover cut decides
    # first; the LP rejects the point, at an L1 distance past FEAS_TOL
    # from the hull x0 = x1, and its cut is that deep, below the
    # FEAS_TOL (1 + |pi|_1) that once judged it
    sigma = np.array([0.5 + distance / 2.0, 0.5 - distance / 2.0])
    action = separation_oracle(PlayerState(_lean()), sigma)
    assert isinstance(action, Cuts)
    [(pi, pi0)] = action.cuts
    assert pi.tolist() == [1.0, -1.0] and pi0 == 0.0


# -- the oracle's LPs honor the deadline ------------------------------------


def test_the_oracle_runs_its_lp_with_the_state_deadline():
    # (1/2, 1/2) is fractional and x0 - x1 <= 0 has no cover, so only the
    # support LP can decide it, and it runs with the state's deadline,
    # which has passed
    state = PlayerState(_lean(), deadline=time.monotonic() - 1.0)
    assert state.knapsacks == []
    with pytest.raises(BudgetExhausted):
        separation_oracle(state, np.array([0.5, 0.5]))


@pytest.mark.parametrize("module_name, caller, make", [
    ("game", "support_from_points", lambda: random_knapsack_game(2, 2, 4).game()),
    ("ip", "solve_ip", lambda: _with_a_continuous_variable(random_knapsack_game(2, 2, 4).game(), 1)),
], ids=["support-lp", "branch-and-bound-lp"])
def test_deadline_passing_in_a_hull_layer_lp_ends_time_limit(monkeypatch, module_name, caller, make):
    # the first LP that ``caller`` runs waits for the deadline, then runs
    # with it; in the last case that is the LP of the oracle's first IP
    module = importlib.import_module(f"rbgames.{module_name}")
    real, seen = module.solve_lp, []

    def late(*args, deadline=None, **kwargs):
        if sys._getframe(1).f_code.co_name == caller:
            seen.append(deadline)
            if deadline is not None:
                time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return real(*args, deadline=deadline, **kwargs)

    monkeypatch.setattr(module, "solve_lp", late)
    game = make()
    result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=0.5))
    assert seen and seen[0] is not None
    assert result.status is EqStatus.TIME_LIMIT
    assert result.stats.iterations >= 1
    assert result.stats.lcp_nodes > 0
