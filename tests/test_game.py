import numpy as np
import pytest

from rbgames import (
    GameModel,
    InfeasibleGame,
    LCPSolution,
    PlayerProgram,
    PlayerStrategy,
    SolverOptions,
    StrategyProfile,
    UnsupportedGame,
    build_nash_lcp,
    cut_and_play,
    deviation_check,
    lattice_points,
    opponents_vector,
    payoff,
    profile_payoffs,
    seeded_rng,
    solve_lcp,
    support_from_points,
)
import rbgames.game as game_module
from rbgames.generators import canonical_knapsack_game, infeasible_game, nondegenerate_seeds, random_knapsack_game
from rbgames.lp import LinearProgram, LPStatus, solve_lp
from rbgames.numerics import FEAS_TOL
from rbgames.poly import Polyhedron

from oracles import (RoundSpy, encode_region_reference, encoding_holds, in_convex_hull_of, nash_lcp_reference,
                     polyhedron_vertices, scipy_lp)


def _scalar_player(name, value, n_opp):
    return PlayerProgram(
        name=name,
        c=np.array([float(value)]),
        C=np.zeros((n_opp, 1)),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        lb=np.zeros(1),
        ub=np.ones(1),
    )


def test_opponents_vector_stacks_in_player_order():
    game = GameModel([_scalar_player("a", 1, 2), _scalar_player("b", 2, 2), _scalar_player("c", 3, 2)])
    pts = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    assert np.allclose(opponents_vector(game, pts, 0), [2.0, 3.0])
    assert np.allclose(opponents_vector(game, pts, 1), [1.0, 3.0])
    assert np.allclose(opponents_vector(game, pts, 2), [1.0, 2.0])
    with pytest.raises(ValueError):
        opponents_vector(game, pts[:2], 0)


def test_profile_payoffs_on_the_known_game():
    game = canonical_knapsack_game().game()
    vals = profile_payoffs(game, [np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    assert np.allclose(vals, [-2.0, -3.0], atol=1e-12)
    vals = profile_payoffs(game, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(vals, [-1.0, -5.0], atol=1e-12)
    vals = profile_payoffs(game, [np.zeros(2), np.zeros(2)])
    assert np.allclose(vals, [0.0, 0.0], atol=1e-12)


def test_deviation_check_flags_the_right_player():
    game = canonical_knapsack_game().game()
    # equilibrium: nobody moves
    assert deviation_check(game, [np.array([0.0, 1.0]), np.array([1.0, 0.0])]) == []
    # both on item 1: blue pays -1 + 5... red pays -3 + 5; both want out
    devs = deviation_check(game, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    players = {d.player for d in devs}
    assert 0 in players
    for d in devs:
        assert d.improvement > 0
    # the mixed equilibrium passes at a loose epsilon and the exact one
    mixed = [np.array([2.0 / 9.0, 7.0 / 9.0]), np.array([2.0 / 5.0, 3.0 / 5.0])]
    assert deviation_check(game, mixed, eps=1e-6) == []


def test_deviation_check_raises_on_empty_player():
    game = infeasible_game().game()
    with pytest.raises(InfeasibleGame):
        deviation_check(game, [np.zeros(1)])


def test_deviation_check_names_a_player_with_an_unbounded_best_response():
    # bounded only below, with a negative cost: no best response exists
    free = PlayerProgram(name="free", c=np.array([-1.0]), C=np.zeros((0, 1)), A=np.zeros((0, 1)), b=np.zeros(0),
                         lb=np.zeros(1), ub=np.full(1, np.inf))
    with pytest.raises(UnsupportedGame, match=r"player 0 \(free\) has an unbounded best response"):
        deviation_check(GameModel([free]), [np.zeros(1)])


def test_deviation_check_with_an_empty_lattice_raises():
    game = canonical_knapsack_game().game()
    with pytest.raises(InfeasibleGame):
        deviation_check(game, [np.zeros(2), np.zeros(2)], lattices=[np.zeros((0, 2)), None])


def test_deviation_check_needs_one_lattice_entry_per_player():
    # both players gain 1.0 at the all-zero profile; a lattice list that
    # is one short would silently skip player 1
    game = random_knapsack_game(3, 2, 2).game()
    zero = [np.zeros(2), np.zeros(2)]
    assert _gains(deviation_check(game, zero)) == {0: 1.0, 1: 1.0}
    assert _gains(deviation_check(game, zero, lattices=[None, None])) == {0: 1.0, 1: 1.0}
    for lattices in ([None], [None, None, None], []):
        with pytest.raises(ValueError, match="one lattice"):
            deviation_check(game, zero, lattices=lattices)


def _gains(devs):
    return {d.player: d.improvement for d in devs}


def test_lattice_certification_matches_branch_and_bound():
    # a best response taken over the enumerated lattice gives the verdict
    # and improvement of the player's branch-and-bound IP, at random mixed
    # and pure profiles of corpus and ladder games; at eps set exactly to
    # a player's B&B gain, the only eps where a verdict could flip, and
    # just below it, both report the same
    games = [random_knapsack_game(s, 2, 2) for s in nondegenerate_seeds(2, 12)]
    games += [random_knapsack_game(s, 2, 3) for s in nondegenerate_seeds(3, 6)]
    games += [random_knapsack_game(s, p, m) for p, m in ((2, 6), (2, 10), (3, 3), (3, 5), (4, 4)) for s in (0, 1)]
    rng = seeded_rng(41)
    profiles = boundaries = 0
    for game in (g.game() for g in games):
        lattices = [lattice_points(p) for p in game.players]
        for trial in range(6):
            if trial % 2:
                profile = [pts[rng.integers(len(pts))] for pts in lattices]
            else:
                profile = [rng.dirichlet(np.ones(len(pts))) @ pts for pts in lattices]
            bnb = _gains(deviation_check(game, profile, eps=1e-12))
            flat = _gains(deviation_check(game, profile, eps=1e-12, lattices=lattices))
            assert bnb.keys() == flat.keys()
            assert all(abs(bnb[i] - flat[i]) <= 1e-9 for i in bnb)
            profiles += 1
            for i, gain in bnb.items():
                for eps in (gain, float(np.nextafter(gain, 0.0))):
                    want = i in _gains(deviation_check(game, profile, eps=eps))
                    assert want is (eps < gain)
                    assert (i in _gains(deviation_check(game, profile, eps=eps, lattices=lattices))) is want
                boundaries += 1
    assert profiles == 28 * 6 and boundaries > 100


def test_barycenter_payoff_matches_support_average():
    # payoffs are linear in the own point, so a support's weighted value
    # equals the barycenter's value against fixed opponents
    game = canonical_knapsack_game().game()
    blue = game.players[0]
    opp = np.array([0.4, 0.6])
    support = [(0.25, np.array([0.0, 1.0])), (0.75, np.array([1.0, 0.0]))]
    bary = sum(w * p for w, p in support)
    direct = payoff(blue, bary, opp)
    averaged = sum(w * payoff(blue, p, opp) for w, p in support)
    assert abs(direct - averaged) < 1e-12


def _l1_distance(pts, sigma):
    """L1 distance from sigma to the hull of the rows of pts, by scipy."""
    K, m = pts.shape
    eye = np.eye(m)
    eq = np.vstack([np.hstack([pts.T, eye, -eye]), np.concatenate([np.ones(K), np.zeros(2 * m)])])
    n = K + 2 * m
    _, value, _ = scipy_lp(np.concatenate([np.zeros(K), np.ones(2 * m)]), np.vstack([eq, -eq]),
                           np.concatenate([sigma, [1.0], -sigma, [-1.0]]), np.zeros(n), np.full(n, np.inf))
    return value


def test_support_from_points_contract():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    sigma = np.array([2.0 / 9.0, 7.0 / 9.0])
    support, pi = support_from_points(pts, sigma)
    assert pi is None
    assert all(w > 0 for w, _ in support)
    assert abs(sum(w for w, _ in support) - 1.0) <= 1e-12
    assert np.abs(sum(w * p for w, p in support) - sigma).sum() <= 1e-12
    # outside the hull: no support, and by LP duality the cut
    # pi x <= max_k pi.p_k passes sigma by its L1 distance, here 0.8
    outside = np.array([0.9, 0.9])
    support, pi = support_from_points(pts, outside)
    assert support is None and np.max(np.abs(pi)) <= 1.0 + 1e-12
    assert abs(float(pi @ outside) - float(np.max(pts @ pi)) - 0.8) <= 1e-12
    # at random points, half of them in the hull: Member exactly within
    # FEAS_TOL of the hull, and otherwise the duality identity
    rng = seeded_rng(5)
    outcomes = set()
    for _ in range(40):
        pts = rng.integers(0, 3, (int(rng.integers(1, 6)), 3)).astype(float)
        w = rng.random(pts.shape[0])
        sigma = w @ pts / w.sum() if rng.random() < 0.5 else rng.random(3) * 2.0
        distance = _l1_distance(pts, sigma)
        support, pi = support_from_points(pts, sigma)
        outcomes.add(support is None)
        if support is not None:
            assert distance <= 1e-7 + 1e-12
            assert np.abs(sum(w * p for w, p in support) - sigma).sum() <= 1e-7 + 1e-12
        else:
            assert distance > 1e-7 - 1e-12
            assert abs(float(pi @ sigma) - float(np.max(pts @ pi)) - distance) <= 1e-9
    assert outcomes == {True, False}


def test_the_oracle_lp_states_m_plus_one_equalities_and_is_exact_on_a_ladder_lattice(monkeypatch):
    # a 2x10 ladder player's lattice; sigma is a convex combination of
    # lattice points on odd trials and a random point of the box on even
    # ones.  A Member's weights reproduce sigma; a cut has |pi_j| <= 1
    # and, over every lattice point, depth equal to the LP's L1 distance
    player = random_knapsack_game(0, 2, 10).game().players[0]
    pts = lattice_points(player)
    K, m = pts.shape
    assert K > 100
    lps = []
    real = game_module.solve_lp

    def recording(lp, deadline=None):
        lps.append((lp, real(lp, deadline=deadline)))
        return lps[-1][1]

    monkeypatch.setattr(game_module, "solve_lp", recording)
    rng = seeded_rng(3)
    outcomes = set()
    for trial in range(16):
        if trial % 2:
            w = rng.random(4)
            sigma = w @ pts[rng.choice(K, 4, replace=False)] / w.sum()
        else:
            sigma = rng.random(m)
        support, pi = support_from_points(pts, sigma)
        lp, res = lps[-1]
        assert lp.nrows == m + 1 and lp.eq.all()
        outcomes.add(support is None)
        if support is not None:
            weights = np.array([w for w, _ in support])
            assert np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-12
            assert all(np.any(np.all(pts == p, axis=1)) for _, p in support)
            assert np.abs(sum(w * p for w, p in support) - sigma).max() <= 1e-9
        else:
            assert np.abs(pi).max() <= 1.0 + 1e-12
            depth = float(pi @ sigma) - max(float(pi @ p) for p in pts)
            assert res.value > FEAS_TOL and abs(depth - res.value) <= 1e-9
    assert outcomes == {True, False}


def test_encode_region_shifts_bounds():
    # a shifted box with a knapsack row: the reference encoding's
    # strategies, which build_nash_lcp reproduces bitwise, are exactly
    # the convex hull of the polyhedron's vertices
    region = Polyhedron(np.array([[3.0, 4.0]]), np.array([5.0]),
                        np.array([-1.0, 0.0]), np.array([1.0, 1.0]))
    enc = encode_region_reference(region)
    assert np.array_equal(enc.lo, [-1.0, 0.0])
    # two free coordinates: y, ybar over each, two box rows, the knapsack
    # row as one inequality with its right-hand side shifted by A lo
    assert enc.nvars == 4 and enc.e.size == 2 and np.array_equal(enc.g, [8.0])
    verts = polyhedron_vertices(region)
    rng = seeded_rng(5)
    inside = 0
    for x in np.vstack([verts, rng.random((80, 2)) * 3.0 - np.array([1.5, 1.0])]):
        member, v = encoding_holds(enc, x)
        assert member == in_convex_hull_of(verts, x), x
        if member:
            inside += 1
            # 1'v is the same at every point of the region
            assert abs(float(v.sum()) - float(encoding_holds(enc, verts[0])[1].sum())) < 1e-9
    assert inside >= 12
    assert not encoding_holds(enc, np.array([1.0, 1.0]))[0]  # violates the knapsack row


def test_nash_lcp_is_copositive_plus():
    # P is entrywise positive, so z'Mz = v'Pv >= 0 on every z >= 0
    rng = seeded_rng(8)
    for seed in (0, 1, 2):
        game = random_knapsack_game(seed, 2, 4).game()
        regions = [Polyhedron(p.A.to_dense(), p.b, p.lb, p.ub) for p in game.players]
        lcp, index_map = build_nash_lcp(game, regions)
        nv = index_map.var_slices[-1].stop
        assert np.all(lcp.M[:nv, :nv] > 0.0), seed
        for _ in range(200):
            z = rng.random(lcp.order) * (rng.random(lcp.order) < 0.5)
            assert z @ lcp.M @ z >= -1e-9 * (1.0 + z @ np.abs(lcp.M) @ z), seed


def _kkt_profile(game, regions):
    lcp, index_map = build_nash_lcp(game, regions)
    sol = solve_lcp(lcp)
    assert isinstance(sol, LCPSolution)
    return index_map.extract(sol.z)


def test_nash_lcp_solutions_are_simultaneous_lp_optima():
    game = canonical_knapsack_game().game()
    regions = [Polyhedron(p.A.to_dense(), p.b, p.lb, p.ub) for p in game.players]
    points = _kkt_profile(game, regions)
    for i, (p, region) in enumerate(zip(game.players, regions)):
        opp = opponents_vector(game, points, i)
        cost = p.c + p.C.rmatvec(opp)
        ref = solve_lp(LinearProgram(cost, region.A, region.b, region.lb, region.ub))
        assert ref.status is LPStatus.OPTIMAL
        assert region.contains(points[i], eps=1e-7)
        assert float(cost @ points[i]) <= ref.value + 1e-6, i


def test_nash_lcp_handles_shifted_boxes():
    # same game runs with lb = -1 after translating the data; the KKT
    # system must place multipliers on the shifted bounds correctly
    rng = seeded_rng(77)
    for seed in (0, 4, 9):
        game = random_knapsack_game(seed).game()
        regions = []
        for p in game.players:
            lb = p.lb - 1.0
            regions.append(Polyhedron(p.A.to_dense(), p.b, lb, p.ub))
        points = _kkt_profile(game, regions)
        for i, (p, region) in enumerate(zip(game.players, regions)):
            opp = opponents_vector(game, points, i)
            cost = p.c + p.C.rmatvec(opp)
            ref = solve_lp(LinearProgram(cost, region.A, region.b, region.lb, region.ub))
            assert float(cost @ points[i]) <= ref.value + 1e-6, (seed, i)


def test_nash_lcp_scale_invariance():
    # scaling one player's objective by a positive factor leaves the
    # equilibrium conditions intact
    game = canonical_knapsack_game().game()
    regions = [Polyhedron(p.A.to_dense(), p.b, p.lb, p.ub) for p in game.players]
    base = _kkt_profile(game, regions)
    for lam in (2.0, 5.0):
        blue, red = game.players
        scaled = GameModel([
            PlayerProgram(
                name=blue.name, c=lam * blue.c,
                C=type(blue.C).from_dense(lam * blue.C.to_dense()),
                A=blue.A.to_dense(), b=blue.b, integers=blue.integers, lb=blue.lb, ub=blue.ub,
            ),
            red,
        ])
        points = _kkt_profile(scaled, regions)
        for i in range(2):
            p = scaled.players[i]
            opp = opponents_vector(scaled, points, i)
            cost = p.c + p.C.rmatvec(opp)
            ref = solve_lp(LinearProgram(cost, regions[i].A, regions[i].b, regions[i].lb, regions[i].ub))
            assert float(cost @ points[i]) <= ref.value + 1e-6, (lam, i)
    assert base is not None


def test_nash_lcp_structure_on_cut_fixed_and_implied_regions(monkeypatch):
    # every round's regions, the relaxations and those after cuts, a
    # coordinate fixed by its bounds and a row that the box implies: M is
    # skew outside the v block, P is entrywise positive, and a solution
    # gives simultaneous LP optima
    spy = RoundSpy(monkeypatch)
    for seed in (0, 1, 2):
        cut_and_play(random_knapsack_game(seed, 3, 5).game(), SolverOptions(deviation_eps=3e-4))
    cases = spy.rounds
    assert len(cases) >= 9
    game = random_knapsack_game(0, 2, 3).game()
    first, second = game.players
    lb, ub = first.lb.copy(), first.ub.copy()
    lb[1] = ub[1] = 1.0
    fixed = Polyhedron(first.A.to_dense(), first.b, lb, ub)
    implied = Polyhedron(np.vstack([second.A.to_dense(), np.ones((1, 3))]), np.append(second.b, 3.0), second.lb, second.ub)
    assert encode_region_reference(fixed).nvars == 4 and encode_region_reference(implied).g.size == 1
    cases.append((game, [fixed, implied]))
    for game, regions in cases:
        lcp, index_map = build_nash_lcp(game, regions)
        nv = index_map.var_slices[-1].stop
        skew = lcp.M + lcp.M.T
        skew[:nv, :nv] = 0.0
        assert not np.any(skew)
        assert np.all(lcp.M[:nv, :nv] > 0.0)
        sol = solve_lcp(lcp)
        assert isinstance(sol, LCPSolution)
        points = index_map.extract(sol.z)
        for i, (p, region) in enumerate(zip(game.players, regions)):
            cost = p.c + p.C.rmatvec(opponents_vector(game, points, i))
            ref = solve_lp(LinearProgram(cost, region.A, region.b, region.lb, region.ub))
            assert ref.status is LPStatus.OPTIMAL
            assert region.contains(points[i], eps=1e-7)
            assert float(cost @ points[i]) <= ref.value + 1e-6, i
    assert points[0][1] == 1.0  # the last case's fixed coordinate, exactly


def test_nash_lcp_matches_the_reference_builder_bitwise(monkeypatch):
    # every round of three 3x5 runs, the first included, a fixed
    # coordinate, a row the box implies, shifted boxes, and a continuous
    # coordinate with ub = inf whose box comes from the bounding-box LPs
    spy = RoundSpy(monkeypatch)
    for seed in (0, 1, 2):
        cut_and_play(random_knapsack_game(seed, 3, 5).game(), SolverOptions(deviation_eps=3e-4))
    cases = spy.rounds
    assert len(cases) >= 9
    game = random_knapsack_game(0, 2, 3).game()
    first, second = game.players
    lb, ub = first.lb.copy(), first.ub.copy()
    lb[1] = ub[1] = 1.0
    implied = Polyhedron(np.vstack([second.A.to_dense(), np.ones((1, 3))]), np.append(second.b, 3.0), second.lb, second.ub)
    cases.append((game, [Polyhedron(first.A.to_dense(), first.b, lb, ub), implied]))
    game = random_knapsack_game(4).game()
    cases.append((game, [Polyhedron(p.A.to_dense(), p.b, p.lb - 1.0, p.ub) for p in game.players]))
    drift = PlayerProgram(name="drift", c=np.array([-1.0, 0.0]), C=np.array([[0.5, -1.0]]),
                          A=np.array([[0.0, 1.0], [1.0, 1.0]]), b=np.array([1.0, 2.5]), integers=(1,),
                          lb=np.zeros(2), ub=np.array([np.inf, 1.0]))
    other = PlayerProgram(name="other", c=np.array([1.0]), C=np.array([[1.0], [-2.0]]), A=np.zeros((0, 1)),
                          b=np.zeros(0), lb=np.zeros(1), ub=np.ones(1))
    game = GameModel([drift, other])
    regions = [Polyhedron(p.A.to_dense(), p.b, p.lb, p.ub) for p in game.players]
    cases.append((game, regions))
    assert regions[0].bounding_box()[1][0] == 2.5
    for game, regions in cases:
        lcp, index_map = build_nash_lcp(game, regions)
        M, q, extract = nash_lcp_reference(game, regions)
        assert np.array_equal(lcp.M, M) and np.array_equal(lcp.q, q)
        sol = solve_lcp(lcp)
        assert isinstance(sol, LCPSolution)
        for got, want in zip(index_map.extract(sol.z), extract(sol.z)):
            assert np.array_equal(got, want)


def test_strategy_profile_accessors():
    s = PlayerStrategy(barycenter=[0.5, 0.5], support=[(0.5, [0.0, 1.0]), (0.5, [1.0, 0.0])])
    assert isinstance(s.barycenter, np.ndarray)
    assert isinstance(s.support[0][1], np.ndarray)
    prof = StrategyProfile(strategies=[s])
    assert np.allclose(prof.barycenters()[0], [0.5, 0.5])
