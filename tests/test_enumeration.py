import time

import numpy as np
import pytest

import rbgames.enumeration as enumeration
from rbgames import (
    Algorithm,
    BudgetExhausted,
    EqStatus,
    GameModel,
    InfeasibleGame,
    PlayerProgram,
    SolverOptions,
    full_enumeration,
    lattice_points,
    opponents_vector,
    payoff,
    solve_game,
)
from rbgames.enumeration import degenerate_bimatrix
from rbgames.generators import (canonical_knapsack_game, cyclic_matching_game, infeasible_game, nondegenerate_seeds,
                                random_knapsack_game)

import oracles
from oracles import is_pure_equilibrium, support_enumeration_loop

_COORD_TOL = 1e-9


def _one_var_player(name, c, coupling, n_opp):
    C = np.zeros((n_opp, 1))
    C[:, 0] = coupling
    return PlayerProgram(
        name=name,
        c=np.array([float(c)]),
        C=C,
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        integers=(0,),
        lb=np.zeros(1),
        ub=np.ones(1),
    )


def _sorted_profiles(results):
    out = []
    for r in results:
        out.append(tuple(round(float(v), 6) for s in r.profile.strategies for v in s.barycenter))
    return sorted(out)


def test_canonical_game_has_exactly_three_equilibria():
    game = canonical_knapsack_game().game()
    results = full_enumeration(game)
    assert len(results) == 3
    expect = {
        ((0.0, 1.0), (1.0, 0.0)): (EqStatus.PNE, (-2.0, -3.0)),
        ((1.0, 0.0), (0.0, 1.0)): (EqStatus.PNE, (-1.0, -5.0)),
        ((2.0 / 9.0, 7.0 / 9.0), (2.0 / 5.0, 3.0 / 5.0)): (EqStatus.MNE, (-0.2, -17.0 / 9.0)),
    }
    found = set()
    for r in results:
        bary = tuple(tuple(float(v) for v in s.barycenter) for s in r.profile.strategies)
        match = None
        for key in expect:
            flat_key = np.array([v for pt in key for v in pt])
            flat = np.array([v for pt in bary for v in pt])
            if np.max(np.abs(flat - flat_key)) < _COORD_TOL:
                match = key
        assert match is not None, bary
        status, payoffs = expect[match]
        assert r.status is status
        assert np.allclose(r.payoffs, payoffs, atol=1e-9)
        found.add(match)
    assert len(found) == 3


def test_mixed_supports_reconstruct_their_barycenters():
    game = canonical_knapsack_game().game()
    for r in full_enumeration(game):
        for s in r.profile.strategies:
            assert s.support is not None
            total = sum(w for w, _ in s.support)
            assert abs(total - 1.0) < 1e-9
            recon = sum(w * p for w, p in s.support)
            assert np.allclose(recon, s.barycenter, atol=1e-9)
            for w, _ in s.support:
                assert w > 1e-9


def test_matching_pennies_has_only_the_mixed_equilibrium():
    game = GameModel([
        _one_var_player("odd", 2.0, [-4.0], 1),
        _one_var_player("even", -2.0, [4.0], 1),
    ])
    results = full_enumeration(game)
    assert len(results) == 1
    r = results[0]
    assert r.status is EqStatus.MNE
    assert np.allclose(r.profile.strategies[0].barycenter, [0.5], atol=_COORD_TOL)
    assert np.allclose(r.profile.strategies[1].barycenter, [0.5], atol=_COORD_TOL)
    assert np.allclose(r.payoffs, [0.0, 0.0], atol=1e-9)


def test_mixed_equilibria_satisfy_indifference():
    # every support point of a mixed equilibrium must achieve the same
    # payoff against the opponent barycenter, and no pure point beats it
    game = canonical_knapsack_game().game()
    for r in full_enumeration(game):
        if r.status is not EqStatus.MNE:
            continue
        points = [s.barycenter for s in r.profile.strategies]
        for i, p in enumerate(game.players):
            opp = opponents_vector(game, points, i)
            support = r.profile.strategies[i].support
            vals = [payoff(p, pt, opp) for _, pt in support]
            assert max(vals) - min(vals) < 1e-9
            for pure in lattice_points(p):
                assert payoff(p, pure, opp) >= min(vals) - 1e-9


def test_dominant_strategies_give_the_unique_pure_equilibrium():
    # zero coupling decouples the game into independent IPs
    game = GameModel([
        _one_var_player("a", -1.0, [0.0, 0.0], 2),
        _one_var_player("b", 1.0, [0.0, 0.0], 2),
        _one_var_player("c", -2.0, [0.0, 0.0], 2),
    ])
    results = full_enumeration(game)
    assert len(results) == 1
    r = results[0]
    assert r.status is EqStatus.PNE
    assert np.allclose([s.barycenter[0] for s in r.profile.strategies], [1.0, 0.0, 1.0])


def test_three_player_cycle_has_no_pure_equilibrium():
    game = cyclic_matching_game().game()
    results = full_enumeration(game)
    assert results == []
    # cross-check: no profile of lattice points survives the oracle
    from itertools import product

    sets = [lattice_points(p) for p in game.players]
    for combo in product(*[range(len(s)) for s in sets]):
        pts = [sets[i][k] for i, k in enumerate(combo)]
        assert not is_pure_equilibrium(game, pts)


def test_pure_results_agree_with_the_oracle_on_seeded_games():
    for seed in range(40):
        game = random_knapsack_game(seed).game()
        results = full_enumeration(game)
        enumerated = {
            tuple(round(float(v), 6) for s in r.profile.strategies for v in s.barycenter)
            for r in results
            if r.status is EqStatus.PNE
        }
        sets = [lattice_points(p) for p in game.players]
        from itertools import product

        oracle = set()
        for combo in product(*[range(len(s)) for s in sets]):
            pts = [sets[i][k] for i, k in enumerate(combo)]
            if is_pure_equilibrium(game, pts):
                oracle.add(tuple(round(float(v), 6) for pt in pts for v in pt))
        assert enumerated == oracle, seed


def test_infeasible_player_raises():
    game = infeasible_game().game()
    with pytest.raises(InfeasibleGame):
        full_enumeration(game)


def test_profile_cap_raises_budget_exhausted(monkeypatch):
    monkeypatch.setattr(enumeration, "PROFILE_CAP", 4)
    game = random_knapsack_game(1, n_items=6).game()
    with pytest.raises(BudgetExhausted):
        full_enumeration(game)


def test_degeneracy_detector():
    # seed 122 has a tied pure best response, which yields a continuum
    # of equilibria; the canonical game is clean
    assert degenerate_bimatrix(random_knapsack_game(122).game())
    assert not degenerate_bimatrix(canonical_knapsack_game().game())


def _matching_pennies():
    return GameModel([
        _one_var_player("odd", 2.0, [-4.0], 1),
        _one_var_player("even", -2.0, [4.0], 1),
    ])


def _bounded_integer_game():
    # two variables in 0..3 per player: seven and six pure strategies,
    # one pure and one mixed equilibrium
    def player(name, c, C, row, cap):
        return PlayerProgram(name=name, c=np.array(c), C=np.array(C), A=np.array([row]), b=np.array([cap]),
                             integers=(0, 1), lb=np.zeros(2), ub=np.full(2, 3.0))

    return GameModel([
        player("p0", [-3.0, -3.0], [[3.0, 5.0], [-5.0, -4.0]], [2.0, 3.0], 6.0),
        player("p1", [-5.0, -5.0], [[-3.0, -2.0], [4.0, -1.0]], [1.0, 1.0], 2.0),
    ])


_DIFFERENTIAL_GAMES = (
    [("canonical", canonical_knapsack_game().game()), ("pennies", _matching_pennies()),
     ("degenerate 122", random_knapsack_game(122).game()), ("integers 0..3", _bounded_integer_game())]
    + [(f"2x2 seed {s}", random_knapsack_game(s).game()) for s in range(10)]
    + [(f"2x3 seed {s}", random_knapsack_game(s, n_items=3).game()) for s in range(10)]
)


def _assert_same_as_the_loop(game, found):
    expected = support_enumeration_loop(game)
    assert len(found) == len(expected)
    for r, (status, bary, sups, pays, iterations) in zip(found, expected):
        assert r.status.value == status
        assert r.stats.iterations == iterations
        assert np.allclose(r.payoffs, pays, atol=1e-9, rtol=0)
        for strategy, b, sup in zip(r.profile.strategies, bary, sups):
            assert np.max(np.abs(strategy.barycenter - b)) <= 1e-9
            assert len(strategy.support) == len(sup)
            for (w, pt), (w_ref, pt_ref) in zip(strategy.support, sup):
                assert abs(w - w_ref) <= 1e-9
                assert np.array_equal(pt, pt_ref)


@pytest.mark.parametrize("batch", [enumeration._BATCH, 5])
@pytest.mark.parametrize("name,game", _DIFFERENTIAL_GAMES, ids=[n for n, _ in _DIFFERENTIAL_GAMES])
def test_batched_enumeration_matches_the_per_pair_loop(monkeypatch, name, game, batch):
    # batch 5 splits every game's pairs across many batches; a player 2
    # with 3 or more pure strategies then takes one row of I per batch
    monkeypatch.setattr(enumeration, "_BATCH", batch)
    _assert_same_as_the_loop(game, full_enumeration(game))


def test_batched_enumeration_matches_the_loop_across_default_batches():
    # 6x6 lattice points: 3,933 mixed pairs in eight batches, with mixed
    # equilibria found in the second, third and fifth of them
    game = random_knapsack_game(106, n_items=3).game()
    found = full_enumeration(game)
    assert [r.stats.iterations for r in found if r.status is EqStatus.MNE] == [669, 1049, 1050, 2013]
    _assert_same_as_the_loop(game, found)


@pytest.mark.parametrize("seed", [156, 290])
def test_pruned_enumeration_matches_the_loop_on_2x4_games(seed):
    # 8x8 lattices: 65,025 support pairs, four and six mixed equilibria
    game = random_knapsack_game(seed, n_items=4).game()
    _assert_same_as_the_loop(game, full_enumeration(game))


@pytest.mark.parametrize("name", ["2x2 seed 0", "2x3 seed 0", "2x3 seed 1", "2x3 seed 5", "integers 0..3"])
def test_small_prune_blocks_match_the_per_pair_loop(monkeypatch, name):
    # 16 pairs per block: one row of I per block while player 2 has at
    # most 4 pure strategies, slices of J for one I beyond that, one
    # pair per stacked solve and one support per dominance chunk
    monkeypatch.setattr(enumeration, "_BATCH_FLOATS", 16)
    game = dict(_DIFFERENTIAL_GAMES)[name]
    _assert_same_as_the_loop(game, full_enumeration(game))


def test_the_prune_keeps_most_pairs_from_the_stacked_solve(monkeypatch):
    rows = []
    pinv = np.linalg.pinv

    def counted(A, *args, **kwargs):
        rows.append(A.shape[0])
        return pinv(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    found = full_enumeration(random_knapsack_game(106, n_items=3).game())
    assert [r.stats.iterations for r in found if r.status is EqStatus.MNE] == [669, 1049, 1050, 2013]
    # without the prune player 1's stage alone stacks all 3,933 mixed pairs
    assert 0 < sum(rows) < 3933 // 10


def test_a_row_ahead_by_exactly_the_margin_is_not_pruned():
    base = np.array([[5.0, 6.0], [5.0, 6.0]])
    margin = enumeration._margin(base)
    assert margin > enumeration._VERIFY_TOL
    both = enumeration._bits(np.array([[True, True]]))
    for gap, pruned in [(margin, 0), (2.0 * margin, 0b01)]:
        cost = base - np.array([[0.0], [gap]])
        assert enumeration._margin(cost) == margin
        # row 1 undercuts row 0 on both columns: row 0 is pruned only past the margin
        assert enumeration._dominated(enumeration._beaten(cost), both).tolist() == [pruned]


def test_a_passed_deadline_stops_before_any_support_work(monkeypatch):
    lattices = []

    def counted(program, cap=enumeration.PROFILE_CAP):
        lattices.append(program.name)
        return lattice_points(program, cap)

    def forbidden(*args):
        raise AssertionError("support work started after the deadline")

    monkeypatch.setattr(enumeration, "lattice_points", counted)
    monkeypatch.setattr(enumeration, "_cost_matrices", forbidden)
    monkeypatch.setattr(enumeration, "_pair_batches", forbidden)
    with pytest.raises(BudgetExhausted):
        full_enumeration(canonical_knapsack_game().game(), deadline=time.monotonic() - 1.0)
    assert lattices == ["blue"]


def test_fullenum_time_limit_returns_time_limit_with_stats():
    opts = SolverOptions(algorithm=Algorithm.FULL_ENUMERATION, time_limit=1e-9)
    results = solve_game(random_knapsack_game(106, n_items=3).game(), opts)
    assert len(results) == 1
    r = results[0]
    assert r.status is EqStatus.TIME_LIMIT
    assert r.profile is None
    assert r.stats is not None and r.stats.wall_ms >= 0.0
    assert r.stats.reason == "deadline"


# -- the array-level lattice and degeneracy test against the code they replaced


def _program(lb, ub, A, b, integers=None):
    m = len(lb)
    A = np.asarray(A, dtype=float).reshape(-1, m)
    return PlayerProgram(name="r", c=np.ones(m), C=np.zeros((0, m)), A=A, b=np.asarray(b, dtype=float),
                         integers=range(m) if integers is None else integers,
                         lb=np.asarray(lb, dtype=float), ub=np.asarray(ub, dtype=float))


def _assert_same_lattice(program, cap=enumeration.PROFILE_CAP):
    got, want = lattice_points(program, cap), oracles.lattice_points(program, cap)
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_lattice_points_match_the_meshgrid_reference_on_random_boxes():
    rng = np.random.default_rng(20)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        lb = rng.integers(-3, 3, size=m)
        ub = lb + rng.integers(0, 4, size=m)
        rows = int(rng.integers(0, 3))
        _assert_same_lattice(_program(lb, ub, rng.integers(-4, 5, size=(rows, m)), rng.integers(-2, 8, size=rows)))


@pytest.mark.parametrize("lb, ub, A, b, cap", [
    ([-2.0, -1.0], [1.0, 2.0], [[1.0, 1.0]], [0.0], 1 << 20),  # negative lower bounds
    ([-1.5, 0.2], [2.5, 3.7], [[2.0, -1.0]], [1.5], 1 << 20),  # fractional bounds
    ([0.0, 0.2, 0.0], [1.0, 0.8, 1.0], [[1.0, 1.0, 1.0]], [2.0], 1 << 20),  # an empty span
    ([0.0, 0.0], [3.0, 3.0], [[1.0, 2.0]], [4.0], 16),  # the box exactly at the cap
    ([0.0, 0.0], [3.0, 3.0], [[1.0, 2.0]], [4.0], 15),  # one past the cap
    ([0.0, 0.0], [0.0, 1.0], [], [], 1 << 20),  # no rows
    ([0.0] * 5, [1.0] * 5, [[1.0, 2.0, 3.0, 4.0, 5.0]], [7.5], 1 << 20),
], ids=["negative", "fractional", "empty-span", "at-cap", "past-cap", "no-rows", "knapsack"])
def test_lattice_points_match_the_meshgrid_reference_on_edge_boxes(lb, ub, A, b, cap):
    _assert_same_lattice(_program(lb, ub, A, b), cap)


def test_lattice_points_skip_a_player_with_a_continuous_variable():
    program = _program([0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [1.0], integers=(1,))
    assert lattice_points(program) is None and oracles.lattice_points(program) is None


@pytest.mark.parametrize("items, seeds", [(2, range(400)), (3, range(400)), (4, range(30))])
def test_degeneracy_verdicts_match_the_game_level_reference(items, seeds):
    verdicts = []
    for seed in seeds:
        game = random_knapsack_game(seed, 2, items).game()
        verdict = degenerate_bimatrix(game)
        assert verdict == oracles.degenerate_bimatrix_reference(game), (items, seed)
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_degeneracy_verdict_on_the_canonical_game_matches_the_reference():
    game = canonical_knapsack_game().game()
    assert degenerate_bimatrix(game) is oracles.degenerate_bimatrix_reference(game) is False


def test_the_seed_scan_builds_no_game(monkeypatch):
    # each tried seed is screened on its drawn arrays; only the callers
    # build the games of the seeds it keeps
    built = [0]
    real = PlayerProgram.__post_init__

    def counting(self):
        built[0] += 1
        real(self)

    monkeypatch.setattr(PlayerProgram, "__post_init__", counting)
    seeds = nondegenerate_seeds(2, 20)
    assert len(seeds) == 20
    assert built[0] == 0
    random_knapsack_game(seeds[0], 2, 2)
    assert built[0] == 2
