import json

import numpy as np
import pytest

from rbgames import (
    DocumentError,
    EqStatus,
    Instance,
    PlayerProgram,
    SolverOptions,
    dumps_canonical,
    instance_from_document,
    instance_to_document,
    load_instance,
    result_to_document,
    save_instance,
    save_result,
)
from rbgames.generators import canonical_knapsack_game, random_knapsack_game


def _doc_roundtrip(inst):
    return instance_from_document(instance_to_document(inst))


def test_canonical_instance_roundtrip_is_byte_stable(tmp_path):
    inst = canonical_knapsack_game()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_instance(inst, first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_random_instances_roundtrip_byte_stable(tmp_path):
    for seed in range(100):
        inst = random_knapsack_game(seed, n_items=2 + seed % 3)
        first = tmp_path / f"a{seed}.json"
        second = tmp_path / f"b{seed}.json"
        save_instance(inst, first)
        save_instance(load_instance(first), second)
        assert first.read_bytes() == second.read_bytes(), seed


def test_roundtrip_preserves_all_fields():
    inst = canonical_knapsack_game()
    back = _doc_roundtrip(inst)
    assert back.name == inst.name
    assert len(back.players) == len(inst.players)
    for p, q in zip(inst.players, back.players):
        assert p.name == q.name
        assert np.array_equal(p.c, q.c)
        assert p.C == q.C
        assert p.A == q.A
        assert np.array_equal(p.b, q.b)
        assert tuple(p.integers) == tuple(q.integers)
        assert np.array_equal(p.lb, q.lb)
        assert np.array_equal(p.ub, q.ub)


def test_infinite_bounds_serialize_as_null():
    inst = Instance("open")
    inst.add_player(
        PlayerProgram(
            name="p",
            c=np.array([1.0]),
            C=np.zeros((0, 1)),
            A=np.array([[1.0]]),
            b=np.array([4.0]),
            lb=np.zeros(1),
            ub=np.array([np.inf]),
        )
    )
    doc = instance_to_document(inst)
    assert doc["players"][0]["bounds"] == [[0, None]]
    back = instance_from_document(doc)
    assert back.players[0].ub[0] == np.inf


def test_integral_values_serialize_without_decimal_point():
    doc = instance_to_document(canonical_knapsack_game())
    text = dumps_canonical(doc)
    assert '"c": [\n        -1,\n        -2\n      ]' in text
    assert text.endswith("\n")
    json.loads(text)  # stays valid JSON


def test_validation_paths():
    good = instance_to_document(canonical_knapsack_game())

    def broken(mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(DocumentError) as info:
            instance_from_document(doc)
        return info.value

    err = broken(lambda d: d.pop("name"))
    assert "name" in str(err)
    err = broken(lambda d: d["players"][0].pop("c"))
    assert "players[0].c" in str(err)
    err = broken(lambda d: d["players"][0]["C"].update(ncols=7))
    assert "players[0].C.ncols" in str(err)
    err = broken(lambda d: d["players"][0]["C"]["entries"].append([9, 0, 1.0]))
    assert "players[0].C.entries[2]" in str(err)
    err = broken(lambda d: d["players"][0]["bounds"].__setitem__(0, [0, None]))
    assert "integer variable requires finite bounds" in str(err)
    err = broken(lambda d: d["players"][0]["bounds"].__setitem__(0, [2, 1]))
    assert "lower bound exceeds upper bound" in str(err)
    err = broken(lambda d: d["players"][1].update(name="blue"))
    assert "duplicate player name" in str(err)
    err = broken(lambda d: d["players"][0].update(integers=[0, 0]))
    assert "duplicate index" in str(err)
    err = broken(lambda d: d["players"][0]["C"].update(nrows=5))
    # cross-player consistency: C must cover exactly the opponents' vars
    assert "C.nrows" in str(err)
    err = broken(lambda d: d.update(players=[]))
    assert "at least one player" in str(err)


def _with_a_nan_bound(side):
    """The canonical document with blue's first variable continuous and
    its lower (side 0) or upper (side 1) bound NaN."""
    doc = instance_to_document(canonical_knapsack_game())
    blue = doc["players"][0]
    blue["integers"] = [1]
    blue["bounds"][0][side] = float("nan")
    return doc


@pytest.mark.parametrize("side", [0, 1], ids=["lb", "ub"])
def test_a_nan_bound_is_rejected(side):
    # NaN passes "lb > ub", so a continuous variable's NaN bound got past
    # both checks and failed only inside the first LP
    bounds = [np.zeros(2), np.ones(2)]
    bounds[side][0] = np.nan
    with pytest.raises(ValueError, match="bounds must not be NaN"):
        PlayerProgram(name="p", c=np.ones(2), C=np.zeros((0, 2)), A=np.zeros((0, 2)), b=np.zeros(0),
                      integers=(1,), lb=bounds[0], ub=bounds[1])
    with pytest.raises(DocumentError) as info:
        instance_from_document(_with_a_nan_bound(side))
    assert info.value.path == "players[0]" and "bounds must not be NaN" in str(info.value)


def test_document_error_formats_path():
    err = DocumentError("players[0].c", "expected a number")
    assert str(err) == "players[0].c: expected a number"
    assert err.path == "players[0].c"


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(DocumentError) as info:
        load_instance(path)
    assert "invalid JSON" in str(info.value)


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(DocumentError) as info:
        load_instance(path)
    assert info.value.path == "." and "not UTF-8 text" in str(info.value)


def test_instance_freeze_after_finalize():
    inst = canonical_knapsack_game()
    inst.finalize()
    extra = PlayerProgram(
        name="late",
        c=np.array([1.0]),
        C=np.zeros((4, 1)),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        lb=np.zeros(1),
        ub=np.ones(1),
    )
    with pytest.raises(ValueError):
        inst.add_player(extra)


def test_instance_solve_roundtrip():
    inst = canonical_knapsack_game()
    res = inst.solve(SolverOptions())
    assert res.status in (EqStatus.PNE, EqStatus.MNE)
    results = inst.solve_all(SolverOptions(algorithm="fullenum"))
    assert len(results) == 3


def test_result_document_shape(tmp_path):
    inst = canonical_knapsack_game()
    results = inst.solve_all(SolverOptions(algorithm="fullenum"))
    names = [p.name for p in inst.players]
    doc = result_to_document(results, names)
    assert doc["status"] == results[0].status.value
    assert len(doc["equilibria"]) == 3
    assert doc["players"] == doc["equilibria"][0]["players"]
    for entry in doc["equilibria"]:
        assert entry["status"] in ("PNE", "MNE")
        for pdoc in entry["players"]:
            assert pdoc["name"] in names
            assert len(pdoc["x"]) == 2
            assert isinstance(pdoc["payoff"], float)
            if entry["status"] == "MNE":
                assert len(pdoc["support"]) >= 2
                total = sum(a["prob"] for a in pdoc["support"])
                assert abs(total - 1.0) < 1e-9
            else:
                assert "support" not in pdoc
    stats = doc["stats"]
    assert set(stats) == {"iterations", "cuts", "lcpNodes", "warmRounds", "coldRestarts", "wallTimeMs", "reason"}
    assert stats["reason"] is None
    out = tmp_path / "result.json"
    save_result(results, names, out)
    parsed = json.loads(out.read_text())
    assert parsed["status"] == doc["status"]


def test_result_document_for_terminal_status():
    from rbgames.game import EquilibriumResult, SolveStats

    res = EquilibriumResult(status=EqStatus.TIME_LIMIT, stats=SolveStats(iterations=4))
    doc = result_to_document(res, ["a", "b"])
    assert doc["status"] == "TimeLimit"
    for pdoc in doc["players"]:
        assert pdoc["x"] is None
        assert pdoc["payoff"] is None
    assert doc["stats"]["iterations"] == 4
