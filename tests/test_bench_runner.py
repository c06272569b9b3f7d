"""The benchmark runner still runs end to end on the current program.

``bench/harness.py`` reads the solver's results, stats and matrices
directly, so an API change that breaks it would otherwise show only when
the benchmark runs.  The harness is loaded by path, as the bench is not
a package, with its sibling modules importable and its output written
under a temporary directory.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def harness(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_harness", BENCH / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", str(tmp_path))
    yield module
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
def test_the_runner_solves_the_stall_workload(harness, tmp_path, capsys, trace):
    args = _load_run().parse_args(["--workload", "stall", "--seconds", "1", "--trace", str(trace)])
    assert harness.run(args) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    with open(tmp_path / f"stall-seed0-trace{trace}.json", encoding="utf-8") as fh:
        report = json.load(fh)
    games = report["games"]
    assert len(games) == 10
    # solved_share, which only an untraced run reports, from the games
    assert sum(g["status"] in ("PNE", "MNE") and not g["problems"] for g in games) / len(games) == 1.0
    if trace:
        assert report["metrics"]["stats.lcp_nodes"] > 0
        assert all(g["traced_lcp_nodes"]["stats"] == g["stats_lcp_nodes"] for g in games)
    else:
        assert report["metrics"]["solved_share"] == 1.0
