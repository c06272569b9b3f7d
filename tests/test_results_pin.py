"""The benchmark's games at shift 0 end exactly as pinned.

One sha1 covers, for every game of the corpus, ladder and stall
workloads, its shape, seed, status, round count, ``lcp_nodes`` and
barycenters rounded to 6 decimals.  A change to the solver that moves
any of them, such as a refactor that was meant to keep every path,
fails here.  The game lists and ``deviation_eps`` come from
``bench/workloads.py``, loaded by path as the bench is not a package.
The games are solved without a time limit so that host speed cannot
move a status.  The pin was taken with numpy 2.4.6 on OpenBLAS; another
BLAS may round differently.  A change that moves the path on purpose
updates the pin and lists the moved games.  The same run checks that
cut-and-play never branches: after every round of every game, each
player's region is one polyhedron.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from rbgames import SolverOptions, cut_and_play, random_knapsack_game

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_PIN = "36249622a9a51a122974f5d2d8f0bda5273a4385"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_results_match_the_pin():
    workloads = _load_workloads()
    opts = SolverOptions(deviation_eps=workloads.DEVIATION_EPS)
    sha = hashlib.sha1()
    pieces = set()

    def watcher(outer, iteration):
        pieces.update(len(state.pieces) for state in outer.states)

    for case in [c for name in workloads.NAMES for c in workloads.cases(name)]:
        res = cut_and_play(random_knapsack_game(case.seed, case.players, case.items).game(), opts, watcher=watcher)
        flat = np.concatenate(res.profile.barycenters()) if res.profile is not None else np.zeros(0)
        bary = ",".join(f"{v:.6f}" for v in np.round(flat, 6) + 0.0)
        line = f"{case.shape} {case.seed} {res.status.value} {res.stats.iterations} {res.stats.lcp_nodes} {bary}\n"
        sha.update(line.encode())
    assert sha.hexdigest() == _PIN
    assert pieces == {1}
