"""Spans around calls into rbgames' public functions, recorded from outside.

``Tracer`` wraps each target function and rebinds the wrapper at every
``rbgames`` module that bound the original, so calls made through names
imported with ``from .lp import solve_lp`` are seen too.  Methods are
wrapped on their class.  Leaving the ``with`` block restores every
original binding.  Spans (name, start, end, parent, note) stay in memory
until the caller writes them out.
"""

import json
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``layer.attr`` names it in module ``rbgames.layer``.

    ``note(args, result)`` keeps one small value per span that returns,
    such as the pivot count of an LP or the verdict of the oracle.
    ``arg_note(args)`` is taken at entry instead, so it is kept even
    when the call raises, as an LCP solve cut short by its deadline does.
    """

    layer: str
    attr: str
    note: object = None
    arg_note: object = None

    @property
    def name(self):
        return f"{self.layer}.{self.attr}"


def _pivots(args, res):
    return res.iterations


def _order(args):
    return args[0].order


def _infeasible(args, res):
    return res is None


def _count(args, res):
    return len(res)


def _verdict(args, res):
    return type(res).__name__


def _pieces(args, res):
    return len(args[0].pieces)


TARGETS = (
    Target("lp", "solve_lp", _pivots),
    Target("lcp", "solve_lcp", arg_note=_order),
    Target("lcp", "solve_lcp_with_fixings", _infeasible),
    Target("ip", "solve_ip"),
    Target("poly", "convex_hull"),
    Target("poly", "hull_contains"),
    Target("poly", "decompose"),
    Target("poly", "Polyhedron.is_empty"),
    Target("poly", "Polyhedron.bounding_box"),
    Target("game", "build_nash_lcp"),
    Target("game", "deviation_check"),
    Target("game", "support_from_points"),
    Target("cuts", "cover_cuts", _count),
    Target("cuts", "gomory_cuts", _count),
    Target("cutplay", "cut_and_play"),
    Target("cutplay", "separation_oracle", _verdict),
    Target("cutplay", "refine_region", _pieces),
    Target("enumeration", "lattice_points"),
)

CALLERS = ("lcp", "ip", "poly", "game", "cuts")


class Tracer:
    """Context manager that records spans while its wrappers are bound.

    It may be entered again; spans from every entry add up.
    """

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.notes = [], [], [], [], []
        self._stack = []
        self._rebound = []  # (owner, attribute, original)

    def __enter__(self):
        for t in TARGETS:
            module = sys.modules[f"rbgames.{t.layer}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(t, original))
                self._rebound.append((cls, meth, original))
                continue
            original = getattr(module, t.attr)
            wrapper = self._wrap(t, original)
            for mod in [m for k, m in sys.modules.items() if k == "rbgames" or k.startswith("rbgames.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        self._rebound.clear()
        return False

    def _wrap(self, target, fn):
        name, note, arg_note = target.name, target.note, target.arg_note
        names, starts, ends, parents, notes, stack = (
            self.names, self.starts, self.ends, self.parents, self.notes, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            notes.append(arg_note(args) if arg_note is not None else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """One JSON line per span: name, start and end in s, parent index, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.notes):
                fh.write(json.dumps(row) + "\n")


def nodes_per_root(tr):
    """LCP branching nodes under each top-level span, in call order.

    The benchmark calls only ``cut_and_play`` while tracing, so each
    top-level span is one game and its descendants follow it directly.
    """
    roots = np.flatnonzero(np.asarray(tr.parents) < 0)
    nodes = np.flatnonzero(np.array(tr.names, dtype=object) == "lcp.solve_lcp_with_fixings")
    return np.bincount(np.searchsorted(roots, nodes, side="right") - 1, minlength=roots.size)


def self_times(starts, ends, parents):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of one
    span never overlap and their durations simply add up.
    """
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(dur.size)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], dur[has_parent])
    return dur - covered


def layer_metrics(tr):
    """Per-layer counts and times of one traced run, keyed by metric name."""
    names = np.array(tr.names, dtype=object)
    layer = np.array([n.split(".", 1)[0] for n in tr.names], dtype=object)
    parents = np.asarray(tr.parents, dtype=np.int64)
    dur = np.asarray(tr.ends) - np.asarray(tr.starts)
    own = self_times(tr.starts, tr.ends, tr.parents)
    notes = tr.notes
    caller = np.array([layer[p] if p >= 0 else "" for p in parents], dtype=object)

    def where(name):
        return np.flatnonzero(names == name)

    def ms(values, idx):
        return float(values[idx].sum()) * 1000.0

    out = {}
    lp = where("lp.solve_lp")
    pivots = np.array([notes[i] or 0 for i in lp], dtype=np.int64)
    out["lp.calls"] = (lp.size, "count")
    out["lp.pivots"] = (int(pivots.sum()), "count")
    out["lp.ms"] = (ms(own, lp), "ms")
    for c in CALLERS:
        sel = caller[lp] == c
        out[f"lp.calls.{c}"] = (int(sel.sum()), "count")
        out[f"lp.pivots.{c}"] = (int(pivots[sel].sum()), "count")
        out[f"lp.ms.{c}"] = (ms(own, lp[sel]), "ms")

    lcp = where("lcp.solve_lcp")
    nodes = where("lcp.solve_lcp_with_fixings")
    node_parent = parents[nodes]
    out["lcp.calls"] = (lcp.size, "count")
    out["lcp.order.max"] = (max((notes[i] for i in lcp), default=0), "count")
    out["lcp.ms"] = (ms(own, np.flatnonzero(layer == "lcp")), "ms")
    out["lcp.self_ms"] = (ms(own, lcp), "ms")
    out["lcp.root_hits"] = (int(np.sum(~np.isin(lcp, node_parent))), "count")
    out["lcp.nodes"] = (nodes.size, "count")
    out["lcp.node_ms"] = (ms(dur, nodes), "ms")
    infeasible = sum(1 for i in nodes if notes[i])
    out["lcp.nodes_infeasible_share"] = (infeasible / nodes.size if nodes.size else 0.0, "share")

    ip = where("ip.solve_ip")
    out["ip.calls"] = (ip.size, "count")
    out["ip.nodes"] = (int(np.sum(caller[lp] == "ip")), "count")
    out["ip.ms"] = (ms(own, ip), "ms")

    hulls = where("poly.convex_hull")
    out["poly.hull_builds"] = (hulls.size, "count")
    out["poly.hull_ms"] = (ms(dur, hulls), "ms")
    out["poly.emptiness_checks"] = (where("poly.Polyhedron.is_empty").size, "count")
    out["poly.bbox_calls"] = (where("poly.Polyhedron.bounding_box").size, "count")
    out["poly.membership_calls"] = (where("poly.hull_contains").size + where("poly.decompose").size, "count")
    out["poly.ms"] = (ms(own, np.flatnonzero(layer == "poly")), "ms")

    builds = where("game.build_nash_lcp")
    for count, key, idx in (("lcp_builds", "lcp_build", builds),
                            ("deviation_checks", "deviation", where("game.deviation_check")),
                            ("support_calls", "support", where("game.support_from_points"))):
        out[f"game.{count}"] = (idx.size, "count")
        out[f"game.{key}_ms"] = (ms(dur, idx), "ms")
    out["game.ms"] = (ms(own, np.flatnonzero(layer == "game")), "ms")

    cuts = np.flatnonzero(layer == "cuts")
    out["cuts.calls"] = (cuts.size, "count")
    out["cuts.generated"] = (sum(notes[i] or 0 for i in cuts), "count")
    out["cuts.ms"] = (ms(own, cuts), "ms")

    games = where("cutplay.cut_and_play")
    oracle = where("cutplay.separation_oracle")
    refine = where("cutplay.refine_region")
    verdicts = [notes[i] for i in oracle]
    out["cutplay.rounds"] = (int(np.sum(caller[builds] == "cutplay")), "count")
    out["cutplay.oracle.calls"] = (oracle.size, "count")
    for verdict in ("Member", "Cuts", "Branch"):
        out[f"cutplay.oracle.{verdict.lower()}"] = (verdicts.count(verdict), "count")
    out["cutplay.oracle.ms"] = (ms(dur, oracle), "ms")
    out["cutplay.refine_ms"] = (ms(dur, refine), "ms")
    out["cutplay.pieces.max"] = (max((notes[i] for i in refine if notes[i] is not None), default=1), "count")
    out["cutplay.self_ms"] = (ms(own, np.flatnonzero(layer == "cutplay")), "ms")

    lattice = where("enumeration.lattice_points")
    out["enumeration.lattice_calls"] = (lattice.size, "count")
    out["enumeration.lattice_ms"] = (ms(dur, lattice), "ms")

    out["lcp.wall_share"] = (float(dur[lcp].sum() / dur[games].sum()) if games.size else 0.0, "share")
    return out
