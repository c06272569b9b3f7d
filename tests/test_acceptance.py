"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines alongside the pytest verdicts.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from rbgames import (
    EqStatus,
    LCP,
    LCPSolution,
    Polyhedron,
    SolverOptions,
    convex_hull,
    cut_and_play,
    deviation_check,
    full_enumeration,
    hull_contains,
    lattice_points,
    load_instance,
    parametrized_objective,
    result_to_document,
    save_instance,
    seeded_rng,
    solve_ip,
    solve_lcp,
)
from rbgames.cli import main as cli_main
from rbgames.generators import (
    canonical_knapsack_game,
    infeasible_game,
    nondegenerate_seeds,
    random_knapsack_game,
)
from rbgames.lp import LPStatus

from oracles import RoundSpy, brute_force_lcp, in_convex_hull_of, polyhedron_vertices

_EXACT = [
    np.array([0.0, 1.0, 1.0, 0.0]),
    np.array([1.0, 0.0, 0.0, 1.0]),
    np.array([2.0 / 9.0, 7.0 / 9.0, 2.0 / 5.0, 3.0 / 5.0]),
]
_EXACT_PAYOFFS = [(-2.0, -3.0), (-1.0, -5.0), (-0.2, -17.0 / 9.0)]


def _verdict(criterion, ok, note):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {tag} ({note})")
    assert ok, f"criterion {criterion}: {note}"


def _flat(result):
    return np.concatenate([s.barycenter for s in result.profile.strategies])


# -- criterion 3 and 5 share one sweep over the seeded corpus ---------------


@pytest.fixture(scope="module")
def corpus_sweep():
    seeds = [(2, s) for s in nondegenerate_seeds(2, 200)]
    seeds += [(3, s) for s in nondegenerate_seeds(3, 80)]
    mismatches = []
    region_violations = []
    statuses = []

    for m, seed in seeds:
        game = random_knapsack_game(seed, 2, m).game()
        pure_sets = {id(p): lattice_points(p) for p in game.players}
        with pytest.MonkeyPatch.context() as mp:
            spy = RoundSpy(mp)
            result = cut_and_play(game, SolverOptions(deviation_eps=3e-4, time_limit=30.0))
        # every round's regions, the first round's relaxations included,
        # and every refined state keep each lattice point
        if len(spy.rounds) != result.stats.iterations:
            region_violations.append(((m, seed), "rounds seen", len(spy.rounds), result.stats.iterations))
        seen = [(f"round {t}", p, [region]) for t, (_, regions) in enumerate(spy.rounds, 1)
                for p, region in zip(game.players, regions)]
        seen += [(f"refinement {k}", state.program, pieces) for k, (state, pieces) in enumerate(spy.refined, 1)]
        for when, program, pieces in seen:
            for point in pure_sets[id(program)]:
                if any(piece.contains(point, eps=1e-7) for piece in pieces):
                    continue
                if not hull_contains(convex_hull(pieces), point, eps=1e-7):
                    region_violations.append(((m, seed), when, program.name, tuple(point)))
        statuses.append(result.status)
        if result.status not in (EqStatus.PNE, EqStatus.MNE):
            mismatches.append(((m, seed), result.status.value))
            continue
        ours = _flat(result)
        best = np.inf
        for ref in full_enumeration(game):
            best = min(best, float(np.linalg.norm(ours - _flat(ref))))
        if best > 1e-6:
            mismatches.append(((m, seed), best))

    return seeds, mismatches, region_violations


def test_criterion_1_ground_truth_enumeration():
    game = canonical_knapsack_game().game()
    t0 = time.monotonic()
    results = full_enumeration(game)
    elapsed = time.monotonic() - t0
    ok = len(results) == 3 and elapsed < 1.0
    matched = set()
    detail = []
    for r in results:
        flat = _flat(r)
        hit = None
        for k, ref in enumerate(_EXACT):
            if np.max(np.abs(flat - ref)) <= 1e-6:
                hit = k
        ok = ok and hit is not None and hit not in matched
        if hit is not None:
            matched.add(hit)
            ok = ok and np.allclose(r.payoffs, _EXACT_PAYOFFS[hit], atol=1e-6)
            want = EqStatus.MNE if hit == 2 else EqStatus.PNE
            ok = ok and r.status is want
        detail.append(hit)
    ok = ok and matched == {0, 1, 2}
    _verdict(1, ok, f"{len(results)} equilibria, matched {sorted(matched)}, {elapsed * 1000:.0f} ms")


def test_criterion_2_cut_and_play_on_the_known_game():
    game = canonical_knapsack_game().game()
    opts = SolverOptions(deviation_eps=3e-4, time_limit=5.0)
    result = cut_and_play(game, opts)
    ok = result.status in (EqStatus.PNE, EqStatus.MNE)
    dist = np.inf
    if ok:
        flat = _flat(result)
        dist = min(float(np.max(np.abs(flat - ref))) for ref in _EXACT)
        ok = dist <= 1e-5
        ok = ok and deviation_check(game, result.profile, eps=3e-4) == []
    _verdict(2, ok, f"status {result.status.value}, distance to nearest known equilibrium {dist:.2e}")


# (count, first seed, last seed, sha1 of the comma-joined seeds) of each
# nondegenerate_seeds list: the corpus the bench and criteria 3 and 5 share
_CORPUS_PINS = {
    2: (200, 2, 316, "d7f4dddb2fbe448deda17b67cf6e1372ddfca139"),
    3: (80, 7, 371, "7190abc04e0809754e0bd50755c0234b4805d724"),
}
# the same for the held-out windows that the bench's --shift 1 and 2 scan
_HELD_OUT_PINS = {
    (1000, 2): (200, 1000, 1330, "361b9cf33cc07b4108fa63bf2baa2e18c5ea7dac"),
    (1000, 3): (80, 1001, 1290, "d0abc9aef38b1b8b257d6e90e8735f14d278c39e"),
    (2000, 2): (200, 2000, 2337, "f0087a4e0a6e142aef0ada97b053b6d2f3b099e3"),
    (2000, 3): (80, 2007, 2323, "c58d4365438dd21b9283d07e02348fb8e601934d"),
}


@pytest.mark.parametrize("start,items", sorted(_HELD_OUT_PINS))
def test_held_out_corpus_windows_match_their_pins(start, items):
    listed = nondegenerate_seeds(items, _HELD_OUT_PINS[start, items][0], start=start)
    digest = hashlib.sha1(",".join(map(str, listed)).encode()).hexdigest()
    assert (len(listed), listed[0], listed[-1], digest) == _HELD_OUT_PINS[start, items]


def test_criterion_3_solver_agreement_on_the_corpus(corpus_sweep):
    seeds, mismatches, _ = corpus_sweep
    for m, pin in _CORPUS_PINS.items():
        listed = [s for items, s in seeds if items == m]
        digest = hashlib.sha1(",".join(map(str, listed)).encode()).hexdigest()
        assert (len(listed), listed[0], listed[-1], digest) == pin, f"the {m}-item corpus changed"
    total = len(seeds)
    ok = total >= 200 and not mismatches
    _verdict(3, ok, f"{total} games, {len(mismatches)} violations{': ' + repr(mismatches[:3]) if mismatches else ''}")


def test_criterion_4a_ip_solver_equals_lattice_enumeration():
    bad = 0
    checked = 0
    for seed in range(500):
        n_items = 2 + seed % 11
        game = random_knapsack_game(seed, n_items=n_items).game()
        rng = np.random.default_rng(seed + 77000)
        for p in game.players:
            opp = rng.integers(0, 2, size=p.opp_vars).astype(float)
            cost = parametrized_objective(p, opp)
            res = solve_ip(p, cost)
            pts = lattice_points(p)
            best = float(np.min(pts @ cost))
            if res.status is not LPStatus.OPTIMAL or abs(res.value - best) > 1e-7:
                bad += 1
            checked += 1
    _verdict("4a", bad == 0 and checked == 1000, f"{checked} best responses on 500 instances, {bad} mismatches")


def test_criterion_4b_lcp_residuals_and_method_agreement():
    rng = seeded_rng(101)
    bad = 0
    disagreements = 0
    both = 0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        B = rng.normal(size=(n, n))
        problem = LCP(M=B @ B.T + n * np.eye(n), q=np.round(rng.normal(size=n) * 3, 2))
        a = solve_lcp(problem)
        if not isinstance(a, LCPSolution):
            bad += 1
            continue
        zmin, wmin, gap = a.residuals()
        if zmin < -1e-7 or wmin < -1e-7 or gap > n * 1e-7:
            bad += 1
        # a strictly monotone LCP has one solution, on a nonsingular basis
        refs = brute_force_lcp(problem.M, problem.q)
        if len(refs) == 1:
            both += 1
            if float(np.max(np.abs(a.z - refs[0][0]))) > 1e-6:
                disagreements += 1
    ok = bad == 0 and disagreements == 0 and both >= 150
    _verdict("4b", ok, f"200 instances, {bad} residual failures, {disagreements} disagreements over {both} joint successes")


def test_criterion_4c_hull_membership_matches_vertex_oracle():
    rng = seeded_rng(131)
    cases = 0
    mismatches = 0
    for trial in range(60):
        n = int(rng.integers(1, 4))
        npieces = int(rng.integers(1, 4))
        pieces, vertices = [], []
        for _ in range(npieces):
            lo = np.round(rng.random(n) * 2 - 1, 1)
            hi = lo + np.round(rng.random(n) * 2 + 0.2, 1)
            k = int(rng.integers(0, 3))
            A = np.round(rng.normal(size=(k, n)), 1)
            b = A @ ((lo + hi) / 2) + np.round(rng.random(k) * 1.5 + 0.1, 1)
            piece = Polyhedron(A, b, lo, hi)
            if piece.is_empty():
                continue
            pieces.append(piece)
            vertices.extend(polyhedron_vertices(piece))
        if not pieces:
            continue
        hull = convex_hull(pieces)
        verts = np.array(vertices)
        for _ in range(10):
            if rng.random() < 0.5 and len(verts) >= 2:
                w = rng.random(len(verts))
                x = (w / w.sum()) @ verts
            else:
                x = rng.normal(size=n) * 1.5
            if hull_contains(hull, x) != in_convex_hull_of(verts, x):
                mismatches += 1
            cases += 1
    ok = mismatches == 0 and cases >= 300
    _verdict("4c", ok, f"{cases} membership cases across dim <= 3, pieces <= 3, {mismatches} mismatches")


def test_criterion_5_outer_approximation_invariant(corpus_sweep):
    seeds, _, region_violations = corpus_sweep
    total = len(seeds)
    ok = total >= 200 and not region_violations
    _verdict(5, ok, f"{total} games audited at every round and refinement, {len(region_violations)} lost points")


def test_criterion_6_degenerate_handling():
    from rbgames import GameModel, PlayerProgram

    notes = []
    # single player: the game collapses to that player's IP
    solo = GameModel([
        PlayerProgram(
            name="solo", c=np.array([-1.0, -2.0]), C=np.zeros((0, 2)),
            A=np.array([[3.0, 4.0]]), b=np.array([5.0]), integers=(0, 1),
            lb=np.zeros(2), ub=np.ones(2),
        )
    ])
    r = cut_and_play(solo, SolverOptions())
    ref = solve_ip(solo.players[0])
    ok = (
        r.status is EqStatus.PNE
        and np.allclose(r.profile.strategies[0].barycenter, ref.x, atol=1e-9)
        and abs(r.payoffs[0] - ref.value) < 1e-9
    )
    notes.append(f"n=1 {r.status.value}")

    infeasible = infeasible_game().game()
    r = cut_and_play(infeasible, SolverOptions())
    ok = ok and r.status is EqStatus.INFEASIBLE
    notes.append(r.status.value)

    # the canonical game solves in about 1 ms (2-core host), so the limit
    # is a tenth of that
    game = canonical_knapsack_game().game()
    r = cut_and_play(game, SolverOptions(time_limit=1e-4))
    ok = ok and r.status is EqStatus.TIME_LIMIT
    doc = result_to_document(r, [p.name for p in game.players])
    ok = ok and doc["status"] == "TimeLimit"
    ok = ok and all(p["x"] is None and p["payoff"] is None for p in doc["players"])
    ok = ok and set(doc["stats"]) == {"iterations", "cuts", "lcpNodes", "warmRounds", "coldRestarts", "wallTimeMs", "reason"}
    ok = ok and doc["stats"]["reason"] == "deadline"
    json.dumps(doc)  # must serialize cleanly
    notes.append(r.status.value)
    _verdict(6, ok, ", ".join(notes))


def test_criterion_7_format_stability_and_exit_codes(tmp_path, capsys):
    stable = 0
    for k, inst in enumerate([canonical_knapsack_game()] + [
        random_knapsack_game(seed, n_items=2 + seed % 3) for seed in range(100)
    ]):
        first = tmp_path / f"first{k}.json"
        second = tmp_path / f"second{k}.json"
        save_instance(inst, first)
        save_instance(load_instance(first), second)
        if first.read_bytes() == second.read_bytes():
            stable += 1
    ok = stable == 101

    canonical = tmp_path / "canonical.json"
    save_instance(canonical_knapsack_game(), canonical)
    code0 = cli_main(["--instance", str(canonical), "--quiet"])
    code1 = cli_main(["--instance", str(tmp_path / "missing.json")])
    empty = tmp_path / "empty-player.json"
    save_instance(infeasible_game(), empty)
    code4 = cli_main(["--instance", str(empty), "--quiet"])
    capsys.readouterr()
    ok = ok and (code0, code1, code4) == (0, 1, 4)
    _verdict(7, ok, f"{stable}/101 byte-stable, exit codes {(code0, code1, code4)}")
