"""Every function the benchmark's tracer wraps still exists and is seen.

``bench/spans.py`` binds its targets by name only when a run is traced,
so a renamed or deleted function would otherwise break ``--trace 1``
runs alone.  The file is loaded by path, as the bench is not a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from rbgames import Polyhedron, SolverOptions, random_knapsack_game

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        module = importlib.import_module(f"rbgames.{target.layer}")
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(module, target.attr, None))
        if not found:
            missing.append(target.name)
    assert missing == []


def _bindings():
    mods = {k: dict(vars(m)) for k, m in sys.modules.items() if k == "rbgames" or k.startswith("rbgames.")}
    mods["Polyhedron"] = dict(vars(Polyhedron))
    return mods


def test_the_tracer_sees_each_layer_of_a_solve_and_restores_every_binding():
    # seed 28 runs one support LP; the canonical game runs no LP at all
    game = random_knapsack_game(28, 2, 2).game()
    spans = _load_spans()
    before = _bindings()
    with spans.Tracer() as tr:
        cutplay = sys.modules["rbgames.cutplay"]
        for name in ("solve_ip", "deviation_check", "lattice_points", "build_nash_lcp"):
            assert hasattr(getattr(cutplay, name), "__wrapped__"), name
        res = cutplay.cut_and_play(game, SolverOptions(deviation_eps=3e-4))
    assert res.status.value == "PNE"
    assert {"cutplay.cut_and_play", "lcp.solve_lcp", "lp.solve_lp", "game.deviation_check"} <= set(tr.names)
    assert all(-1 <= p < i for i, p in enumerate(tr.parents))
    after = _bindings()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys()
        assert all(after[key][a] is v for a, v in attrs.items()), key
