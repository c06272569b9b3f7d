import json
import re
from pathlib import Path

import numpy as np
import pytest

from rbgames import PlayerProgram
from rbgames.cli import build_parser, main
from rbgames.generators import (
    canonical_knapsack_game,
    cyclic_matching_game,
    infeasible_game,
    random_knapsack_game,
)
from rbgames.model import Instance, instance_to_document, save_instance

_INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="module")
def canonical_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "canonical.json"
    save_instance(canonical_knapsack_game(), path)
    return str(path)


def test_packaged_instances_exist():
    names = {p.name for p in _INSTANCES.glob("*.json")}
    assert "canonical-knapsack.json" in names
    assert "infeasible-player.json" in names
    assert "cyclic-matching.json" in names


def test_equilibrium_found_exits_zero(canonical_path, capsys):
    code = main(["--instance", canonical_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("status: ")
    first = out.splitlines()[0].split(": ")[1]
    assert first in ("PNE", "MNE")
    assert "blue: x = [" in out
    assert "red: x = [" in out
    assert re.search(r"iterations: \d+ {2}cuts: \d+", out)


def test_full_enumeration_lists_every_equilibrium(canonical_path, capsys):
    code = main(["--instance", canonical_path, "--algorithm", "fullenum"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("equilibrium ") == 3


def test_output_document(canonical_path, tmp_path, capsys):
    dest = tmp_path / "result.json"
    code = main(["--instance", canonical_path, "--algorithm", "fullenum",
                 "--output", str(dest), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(dest.read_text())
    assert doc["status"] in ("PNE", "MNE")
    assert len(doc["equilibria"]) == 3
    assert doc["stats"]["iterations"] >= 1


def test_deterministic_output_modulo_wall_time(canonical_path, tmp_path):
    docs = []
    for k in range(2):
        dest = tmp_path / f"run{k}.json"
        assert main(["--instance", canonical_path, "--output", str(dest), "--quiet"]) == 0
        doc = json.loads(dest.read_text())
        doc["stats"].pop("wallTimeMs")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_no_equilibrium_exits_two(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    save_instance(cyclic_matching_game(), path)
    code = main(["--instance", str(path), "--algorithm", "fullenum"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: NoEquilibriumFound" in out


def test_time_limit_exits_three(canonical_path, capsys):
    # the canonical game solves in about 1 ms (2-core host), so the limit
    # is a tenth of that
    code = main(["--instance", canonical_path, "--timelimit", "0.0001"])
    out = capsys.readouterr().out
    assert code == 3
    assert "status: TimeLimit" in out


def test_infeasible_exits_four(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_instance(infeasible_game(), path)
    code = main(["--instance", str(path)])
    out = capsys.readouterr().out
    assert code == 4
    assert "status: Infeasible" in out


def test_the_report_says_why_no_equilibrium_was_found(tmp_path, capsys):
    dest = tmp_path / "result.json"
    code = main(["--instance", str(_INSTANCES / "infeasible-player.json"), "--output", str(dest)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert lines[:2] == ["status: Infeasible", "reason: player stuck: region emptied by its own rows"]
    # the result document stores the same reason
    doc = json.loads(dest.read_text())
    assert set(doc) == {"status", "players", "equilibria", "stats"}
    assert set(doc["stats"]) == {"iterations", "cuts", "lcpNodes", "warmRounds", "coldRestarts", "wallTimeMs", "reason"}
    assert doc["stats"]["reason"] == "player stuck: region emptied by its own rows"


def test_the_stats_line_counts_warm_rounds_and_cold_restarts(tmp_path, capsys):
    # 2x8 seed 11 starts two of its three rounds warm, and one of those
    # restarts cold; the line counts Lemke pivots, and the result
    # document holds the same counts
    path, dest = tmp_path / "game.json", tmp_path / "result.json"
    save_instance(random_knapsack_game(11, 2, 8), path)
    code = main(["--instance", str(path), "--tolerance", "3e-4", "--output", str(dest)])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"iterations: 3 {2}cuts: \d+ {2}lemke pivots: 125 {2}warm rounds: 2 {2}cold restarts: 1 {2}wall ms: ", out)
    stats = json.loads(dest.read_text())["stats"]
    assert set(stats) == {"iterations", "cuts", "lcpNodes", "warmRounds", "coldRestarts", "wallTimeMs", "reason"}
    assert (stats["iterations"], stats["lcpNodes"], stats["warmRounds"], stats["coldRestarts"]) == (3, 125, 2, 1)


def test_missing_file_exits_one(capsys):
    code = main(["--instance", "/nonexistent/game.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no such file" in err


def _exits_one_with_an_error(argv, capsys, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and message in captured.err, captured.err
    assert "Traceback" not in captured.err


def test_a_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    _exits_one_with_an_error(["--instance", str(path)], capsys, "not UTF-8 text")


def test_a_directory_as_instance_exits_one(tmp_path, capsys):
    _exits_one_with_an_error(["--instance", str(tmp_path)], capsys, f"cannot read {tmp_path}")


def test_an_output_path_in_a_missing_directory_exits_one(canonical_path, tmp_path, capsys):
    dest = tmp_path / "missing" / "result.json"
    _exits_one_with_an_error(["--instance", canonical_path, "--output", str(dest)], capsys, f"cannot write {dest}")


def test_a_nan_bound_exits_one(tmp_path, capsys):
    doc = instance_to_document(canonical_knapsack_game())
    doc["players"][0]["integers"] = [1]
    doc["players"][0]["bounds"][0][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes the bare NaN that Python's json reads back
    _exits_one_with_an_error(["--instance", str(path)], capsys, "error: players[0]: bounds must not be NaN")


def test_bad_document_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": 7, "players": []}')
    code = main(["--instance", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: name: expected str" in err


@pytest.mark.parametrize("algorithm, program, message", [
    # fullenum lists pure strategies, which a continuous variable makes infinite
    ("fullenum", PlayerProgram(name="half", c=np.array([-1.0, -1.0]), C=np.zeros((0, 2)), A=np.array([[1.0, 1.0]]),
                               b=np.array([1.5]), integers=(0,), lb=np.zeros(2), ub=np.ones(2)),
     "continuous variables"),
    ("cutandplay", PlayerProgram(name="drift", c=np.array([-1.0, 0.0]), C=np.zeros((0, 2)), A=np.array([[0.0, 1.0]]),
                                 b=np.array([1.0]), integers=(1,), lb=np.zeros(2), ub=np.array([np.inf, 1.0])),
     "player drift must have a bounded feasible set"),
], ids=["fullenum-continuous", "cutandplay-unbounded"])
def test_a_game_the_algorithm_cannot_take_exits_one(tmp_path, capsys, algorithm, program, message):
    path = tmp_path / "game.json"
    save_instance(Instance(program.name).add_player(program), path)
    code = main(["--instance", str(path), "--algorithm", algorithm])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


def test_usage_errors_exit_one(canonical_path, capsys):
    assert main([]) == 1  # --instance is required
    capsys.readouterr()
    assert main(["--instance", canonical_path, "--algorithm", "simplex"]) == 1
    capsys.readouterr()
    assert main(["--instance", canonical_path, "--tolerance", "0"]) == 1
    capsys.readouterr()
    assert main(["--instance", canonical_path, "--threads", "2"]) == 1  # no such flag
    capsys.readouterr()
    assert main(["--instance", canonical_path, "--timelimit", "-2"]) == 1
    capsys.readouterr()
    # a value in exponent form starts with a dash as a flag does
    assert main(["--instance", canonical_path, "--timelimit", "-1e-3"]) == 1
    assert capsys.readouterr().err.startswith("error: --timelimit must be positive and finite")


@pytest.mark.parametrize("flag", ["--tolerance", "--timelimit"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_and_timelimit_exit_one(canonical_path, capsys, flag, value):
    # --tolerance nan would switch the deviation check off (gain > nan is
    # never true) and --timelimit nan the deadline
    assert main(["--instance", canonical_path, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be positive and finite")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--instance" in out


def test_lemke_option(canonical_path, capsys):
    # one LCP path: the flag that selected a solver is gone
    code = main(["--instance", canonical_path, "--lcp", "lemke"])
    capsys.readouterr()
    assert code == 1


def test_parser_defaults():
    args = build_parser().parse_args(["--instance", "x.json"])
    assert args.algorithm == "cutandplay"
    assert args.tolerance == 3e-4
    assert not args.quiet


def test_console_script_runs(canonical_path):
    import subprocess
    import sys

    import rbgames

    # run beside the imported package, so a source checkout needs no install
    proc = subprocess.run(
        [sys.executable, "-m", "rbgames", "--instance", canonical_path, "--quiet"],
        capture_output=True,
        text=True,
        cwd=Path(rbgames.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
