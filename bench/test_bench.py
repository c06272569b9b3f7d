"""Tests of the benchmark's own code: span arithmetic, wrapping, output check.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import check
import spans
import workloads
from rbgames import PlayerStrategy, Polyhedron, SolverOptions, StrategyProfile, cutplay, random_knapsack_game
from rbgames.generators import canonical_knapsack_game

OPTS = SolverOptions(deviation_eps=workloads.DEVIATION_EPS, time_limit=20.0)


def _spans(rows):
    """Tracer-shaped record from (name, start, end, parent, note) rows."""
    names, starts, ends, parents, notes = (list(c) for c in zip(*rows))
    return SimpleNamespace(names=names, starts=starts, ends=ends, parents=parents, notes=notes)


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times([0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0])
    assert np.allclose(own, [3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_attribute_lp_time_to_the_calling_layer():
    tr = _spans([
        ("cutplay.cut_and_play", 0.0, 10.0, -1, None),
        ("game.build_nash_lcp", 0.0, 0.5, 0, None),
        ("lcp.solve_lcp", 1.0, 7.0, 0, 12),
        ("lcp.solve_lcp_with_fixings", 2.0, 6.0, 2, False),
        ("lp.solve_lp", 2.5, 5.5, 3, 7),
        ("lcp.solve_lcp", 7.0, 7.5, 0, 30),
        ("game.deviation_check", 8.0, 9.0, 0, None),
        ("ip.solve_ip", 8.0, 8.8, 6, None),
        ("lp.solve_lp", 8.1, 8.3, 7, 2),
    ])
    m = {k: v for k, (v, _) in spans.layer_metrics(tr).items()}
    assert (m["lp.calls"], m["lp.pivots"]) == (2, 9)
    assert (m["lp.calls.lcp"], m["lp.pivots.lcp"], m["lp.calls.ip"], m["lp.calls.game"]) == (1, 7, 1, 0)
    assert m["lp.ms.lcp"] == pytest.approx(3000.0)
    assert m["lcp.ms"] == pytest.approx(3500.0)
    assert m["lcp.self_ms"] == pytest.approx(2500.0)
    assert m["lcp.node_ms"] == pytest.approx(4000.0)
    assert (m["lcp.calls"], m["lcp.nodes"], m["lcp.root_hits"], m["lcp.order.max"]) == (2, 1, 1, 30)
    assert (m["ip.calls"], m["ip.nodes"]) == (1, 1)
    assert m["ip.ms"] == pytest.approx(600.0)
    assert m["game.deviation_ms"] == pytest.approx(1000.0)
    assert m["cutplay.rounds"] == 1
    assert m["cutplay.self_ms"] == pytest.approx((10.0 - 0.5 - 6.0 - 0.5 - 1.0) * 1000.0)
    assert m["lcp.wall_share"] == pytest.approx(0.65)


def _bindings():
    mods = {k: dict(vars(m)) for k, m in sys.modules.items() if k == "rbgames" or k.startswith("rbgames.")}
    mods["Polyhedron"] = dict(vars(Polyhedron))
    return mods


def test_tracer_rebinds_every_import_site_and_restores_them():
    import rbgames.cutplay
    import rbgames.lp

    before = _bindings()
    solve_lp = rbgames.lp.solve_lp
    with spans.Tracer() as tr:
        for name in ("lcp", "ip", "poly", "game", "cuts"):
            assert sys.modules[f"rbgames.{name}"].solve_lp.__wrapped__ is solve_lp
        for name in ("solve_lcp", "solve_ip", "convex_hull", "lattice_points", "build_nash_lcp", "deviation_check"):
            assert hasattr(getattr(rbgames.cutplay, name), "__wrapped__"), name
        assert hasattr(Polyhedron.is_empty, "__wrapped__")
        res = cutplay.cut_and_play(canonical_knapsack_game().game(), OPTS)
    assert res.status.value in check.SOLVED
    assert {"cutplay.cut_and_play", "lcp.solve_lcp", "lp.solve_lp", "game.deviation_check"} <= set(tr.names)
    assert all(-1 <= p < i for i, p in enumerate(tr.parents))

    after = _bindings()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys()
        assert all(after[key][a] is v for a, v in attrs.items()), key
    count = len(tr.names)
    cutplay.cut_and_play(canonical_knapsack_game().game(), OPTS)
    assert len(tr.names) == count


def test_span_node_count_matches_solver_stats_on_a_solved_game():
    game = random_knapsack_game(3, 2, 6).game()
    with spans.Tracer() as tr:
        res = cutplay.cut_and_play(game, OPTS)
    assert res.status.value in check.SOLVED
    assert res.stats.lcp_nodes > 0
    assert list(spans.nodes_per_root(tr)) == [res.stats.lcp_nodes]


def test_check_accepts_the_solver_answer_and_rejects_tampered_profiles():
    game = canonical_knapsack_game().game()
    res = cutplay.cut_and_play(game, OPTS)
    refs = [np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0, 1.0]),
            np.array([2 / 9, 7 / 9, 2 / 5, 3 / 5])]
    assert check.verify(game, res, workloads.DEVIATION_EPS, references=refs) == []

    moved = res.profile.strategies[0]
    res.profile.strategies[0] = PlayerStrategy(moved.barycenter + 0.25, moved.support)
    assert any("average" in p for p in check.verify(game, res, workloads.DEVIATION_EPS))

    both_second = np.array([0.0, 1.0])
    res.profile = StrategyProfile([PlayerStrategy(both_second, [(1.0, both_second)])] * 2)
    res.status = type(res.status)("PNE")
    problems = check.verify(game, res, workloads.DEVIATION_EPS, references=refs)
    assert any("best response" in p for p in problems)
    assert any("enumerated" in p for p in problems)


def test_workloads_hold_the_roadmap_ladder_and_the_seed_only_reorders():
    ladder = workloads.cases("ladder")
    assert sorted({c.shape for c in ladder}) == ["2x10", "2x6", "3x3", "3x5", "4x4"]
    assert len(ladder) == 25 and {c.seed for c in ladder} == set(range(5))
    stall = workloads.cases("stall")
    assert len(stall) == 10 and {c.shape for c in stall} == {"2x4", "2x8"}
    assert {c.seed for c in workloads.cases("stall", shift=2)} == set(range(10, 15))
    a = [c for c, _ in workloads.build("stall", 1)]
    assert a == [c for c, _ in workloads.build("stall", 1)]
    assert sorted(a, key=lambda c: (c.shape, c.seed)) == sorted(stall, key=lambda c: (c.shape, c.seed))
    assert a != [c for c, _ in workloads.build("stall", 2)]


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stall", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
