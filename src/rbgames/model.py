"""Instance and result documents.

Instances serialize to a canonical JSON layout: players in insertion
order, sparse entries row-major, integral values written as JSON
integers and everything else with the shortest round-trip decimal.
Saving, loading and saving again is byte-identical.
"""

import json

import numpy as np

from .cutplay import solve_game
from .errors import DocumentError
from .game import GameModel
from .ip import PlayerProgram
from .numerics import SparseMatrix

_INF = float("inf")


def _num(value):
    """Canonical JSON scalar: int when integral, float otherwise."""
    v = float(value)
    if np.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return int(v)
    return v


def _bound(value):
    return None if not np.isfinite(value) else _num(value)


class Instance:
    """Named game plus solve dispatch; immutable once finalized."""

    def __init__(self, name):
        if not isinstance(name, str) or not name:
            raise ValueError("instance name must be a nonempty string")
        self.name = name
        self.players = []
        self._finalized = False

    def add_player(self, program):
        if self._finalized:
            raise ValueError("instance is finalized; no more players can be added")
        if not isinstance(program, PlayerProgram):
            raise TypeError("add_player expects a PlayerProgram")
        if any(p.name == program.name for p in self.players):
            raise ValueError(f"duplicate player name: {program.name}")
        self.players.append(program)
        return self

    def finalize(self):
        """Validate cross-player shapes and freeze the instance."""
        game = GameModel(self.players)  # raises on inconsistent coupling shapes
        self._finalized = True
        self._game = game
        return self

    def game(self):
        if not self._finalized:
            self.finalize()
        return self._game

    def solve(self, opts=None):
        """First equilibrium found (or the terminal status result)."""
        return self.solve_all(opts)[0]

    def solve_all(self, opts=None):
        """Every equilibrium for fullenum; a single result for cutandplay."""
        return solve_game(self.game(), opts)


# -- document layer ---------------------------------------------------------


def _expect(doc, key, kind, path):
    if not isinstance(doc, dict):
        raise DocumentError(path or ".", "expected an object")
    if key not in doc:
        raise DocumentError(f"{path}.{key}" if path else key, "missing required field")
    val = doc[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise DocumentError(f"{path}.{key}" if path else key, "expected a number")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise DocumentError(f"{path}.{key}" if path else key, "expected an integer")
        return val
    if not isinstance(val, kind):
        raise DocumentError(f"{path}.{key}" if path else key, f"expected {kind.__name__}")
    return val


def _number_list(doc, key, path, length=None):
    seq = _expect(doc, key, list, path)
    out = []
    for i, v in enumerate(seq):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DocumentError(f"{path}.{key}[{i}]", "expected a number")
        out.append(float(v))
    if length is not None and len(out) != length:
        raise DocumentError(f"{path}.{key}", f"expected {length} entries, got {len(out)}")
    return np.array(out, dtype=float)


def _sparse_from_doc(doc, key, path, ncols):
    sub = _expect(doc, key, dict, path)
    spath = f"{path}.{key}"
    nrows = _expect(sub, "nrows", int, spath)
    got_cols = _expect(sub, "ncols", int, spath)
    if got_cols != ncols:
        raise DocumentError(f"{spath}.ncols", f"expected {ncols}, got {got_cols}")
    entries = _expect(sub, "entries", list, spath)
    triplets = []
    for i, e in enumerate(entries):
        epath = f"{spath}.entries[{i}]"
        if not isinstance(e, list) or len(e) != 3:
            raise DocumentError(epath, "expected [row, col, value]")
        r, c, v = e
        if isinstance(r, bool) or not isinstance(r, int) or isinstance(c, bool) or not isinstance(c, int):
            raise DocumentError(epath, "row and col must be integers")
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DocumentError(epath, "value must be a number")
        if not (0 <= r < nrows):
            raise DocumentError(epath, f"row {r} out of range [0, {nrows})")
        if not (0 <= c < ncols):
            raise DocumentError(epath, f"col {c} out of range [0, {ncols})")
        triplets.append((r, c, float(v)))
    try:
        return SparseMatrix(nrows, ncols, triplets)
    except ValueError as exc:
        raise DocumentError(f"{spath}.entries", str(exc))


def _player_from_doc(doc, idx):
    path = f"players[{idx}]"
    name = _expect(doc, "name", str, path)
    nvars = _expect(doc, "vars", int, path)
    if nvars < 1:
        raise DocumentError(f"{path}.vars", "player needs at least one variable")
    c = _number_list(doc, "c", path, length=nvars)
    C = _sparse_from_doc(doc, "C", path, nvars)
    A = _sparse_from_doc(doc, "A", path, nvars)
    b = _number_list(doc, "b", path, length=A.nrows)
    integers = _expect(doc, "integers", list, path)
    ints = []
    for i, v in enumerate(integers):
        if isinstance(v, bool) or not isinstance(v, int):
            raise DocumentError(f"{path}.integers[{i}]", "expected an integer index")
        if not (0 <= v < nvars):
            raise DocumentError(f"{path}.integers[{i}]", f"index {v} out of range [0, {nvars})")
        ints.append(v)
    if len(set(ints)) != len(ints):
        raise DocumentError(f"{path}.integers", "duplicate index")
    bounds = _expect(doc, "bounds", list, path)
    if len(bounds) != nvars:
        raise DocumentError(f"{path}.bounds", f"expected {nvars} pairs, got {len(bounds)}")
    lb, ub = np.empty(nvars), np.empty(nvars)
    for j, pair in enumerate(bounds):
        bpath = f"{path}.bounds[{j}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(bpath, "expected [lb, ub]")
        lo, hi = pair
        for v in (lo, hi):
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
                raise DocumentError(bpath, "bounds must be numbers or null")
        lb[j] = -_INF if lo is None else float(lo)
        ub[j] = _INF if hi is None else float(hi)
        if lb[j] > ub[j]:
            raise DocumentError(bpath, "lower bound exceeds upper bound")
        if j in ints and (lo is None or hi is None):
            raise DocumentError(bpath, "integer variable requires finite bounds")
    try:
        return PlayerProgram(name=name, c=c, C=C, A=A, b=b, integers=ints, lb=lb, ub=ub)
    except ValueError as exc:
        raise DocumentError(path, str(exc))


def instance_from_document(doc):
    if not isinstance(doc, dict):
        raise DocumentError(".", "expected a JSON object")
    name = _expect(doc, "name", str, "")
    players = _expect(doc, "players", list, "")
    if not players:
        raise DocumentError("players", "at least one player required")
    inst = Instance(name)
    total = 0
    programs = []
    for i, pdoc in enumerate(players):
        if not isinstance(pdoc, dict):
            raise DocumentError(f"players[{i}]", "expected an object")
        prog = _player_from_doc(pdoc, i)
        programs.append(prog)
        total += prog.nvars
    for i, prog in enumerate(programs):
        expect = total - prog.nvars
        if prog.opp_vars != expect:
            raise DocumentError(
                f"players[{i}].C.nrows",
                f"expected {expect} (sum of opponents' variable counts), got {prog.opp_vars}",
            )
        try:
            inst.add_player(prog)
        except ValueError as exc:
            raise DocumentError(f"players[{i}].name", str(exc))
    return inst


def _sparse_to_doc(m):
    return {
        "nrows": m.nrows,
        "ncols": m.ncols,
        "entries": [[r, c, _num(v)] for r, c, v in m.entries()],
    }


def instance_to_document(inst):
    players = []
    for p in inst.players:
        players.append(
            {
                "name": p.name,
                "vars": p.nvars,
                "c": [_num(v) for v in p.c],
                "C": _sparse_to_doc(p.C),
                "A": _sparse_to_doc(p.A),
                "b": [_num(v) for v in p.b],
                "integers": list(p.integers),
                "bounds": [[_bound(lo), _bound(hi)] for lo, hi in zip(p.lb, p.ub)],
            }
        )
    return {"name": inst.name, "players": players}


def dumps_canonical(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(instance_to_document(inst)))


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DocumentError(".", f"not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(".", f"invalid JSON: {exc}")
    return instance_from_document(doc)


# -- result documents -------------------------------------------------------


def _strategy_doc(name, strategy, payoff_value):
    entry = {"name": name}
    if strategy is None:
        entry["x"] = None
        entry["payoff"] = None
        return entry
    entry["x"] = [float(v) for v in strategy.barycenter]
    entry["payoff"] = float(payoff_value)
    if strategy.support is not None and len(strategy.support) > 1:
        entry["support"] = [
            {"prob": float(w), "point": [float(v) for v in pt]} for w, pt in strategy.support
        ]
    return entry


def result_to_document(results, player_names):
    """ResultDocument for one or several equilibria.

    The top level mirrors the first result; the ``equilibria`` list
    carries one entry per equilibrium found.
    """
    if not isinstance(results, (list, tuple)):
        results = [results]
    head = results[0]
    entries = []
    for res in results:
        players = []
        for i, name in enumerate(player_names):
            strategy = res.profile.strategies[i] if res.profile is not None else None
            pay = res.payoffs[i] if res.payoffs is not None else None
            players.append(_strategy_doc(name, strategy, pay))
        entries.append({"status": res.status.value, "players": players})
    doc = {
        "status": head.status.value,
        "players": entries[0]["players"],
        "equilibria": entries,
        "stats": {
            "iterations": head.stats.iterations,
            "cuts": head.stats.cuts,
            "lcpNodes": head.stats.lcp_nodes,
            "warmRounds": head.stats.warm_rounds,
            "coldRestarts": head.stats.cold_restarts,
            "wallTimeMs": float(head.stats.wall_ms),
            "reason": head.stats.reason,
        },
    }
    return doc


def save_result(results, player_names, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(result_to_document(results, player_names)))
