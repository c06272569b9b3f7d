"""The benchmark's games at shift 0 end exactly as pinned.

``results_pin.txt`` holds one line for every game of the corpus, ladder
and stall workloads: its shape, seed, status, round count,
``lcp_nodes`` and barycenters rounded to 6 decimals.  Every line must
match exactly, and a mismatch names each game that moved.  A change to
the solver that moves any of them, such as a refactor that was meant to
keep every path, fails here.  The game lists and ``deviation_eps`` come
from ``bench/workloads.py``, loaded by path as the bench is not a
package.  The games are solved without a time limit so that host speed
cannot move a status.  The pin was taken with numpy 2.4.6 on OpenBLAS;
another BLAS may round differently.  A change that moves the path on
purpose re-takes the pin, with ``PYTHONPATH=src python
tests/test_results_pin.py``, and lists the moved games.  With
``--shift K`` the same script prints the lines of the held-out window K
(``bench/workloads.py``) to stdout instead and leaves the pin alone, so
the windows at shifts 1 and 2 can be compared before and after such a
change.  The test run checks that cut-and-play never branches: after
every refinement of every game, the player's region is one polyhedron.
"""

import argparse
import importlib.util
from pathlib import Path

import numpy as np

from rbgames import SolverOptions, cut_and_play, random_knapsack_game

from oracles import RoundSpy

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
PIN = Path(__file__).with_name("results_pin.txt")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_lines(shift=0):
    """One line per workload game of the window at ``shift``: shape, seed,
    status, rounds, ``lcp_nodes`` and the barycenters rounded to 6
    decimals."""
    workloads = _load_workloads()
    opts = SolverOptions(deviation_eps=workloads.DEVIATION_EPS)
    lines = []
    for case in [c for name in workloads.NAMES for c in workloads.cases(name, shift)]:
        res = cut_and_play(random_knapsack_game(case.seed, case.players, case.items).game(), opts)
        flat = np.concatenate(res.profile.barycenters()) if res.profile is not None else np.zeros(0)
        bary = ",".join(f"{v:.6f}" for v in np.round(flat, 6) + 0.0)
        lines.append(f"{case.shape} {case.seed} {res.status.value} {res.stats.iterations} {res.stats.lcp_nodes} {bary}")
    return lines


def test_workload_results_match_the_pin(monkeypatch):
    spy = RoundSpy(monkeypatch)
    lines = workload_lines()
    pinned = PIN.read_text().splitlines()
    moved = [f"pinned {want}\n   got {got}" for want, got in zip(pinned, lines) if want != got]
    assert not moved, "\n".join(moved)
    assert len(lines) == len(pinned) == 315
    assert {len(pieces) for _, pieces in spy.refined} == {1}


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Re-take the results pin, or print a held-out window's lines.")
    ap.add_argument("--shift", type=int, help="print the lines of this window instead of writing the pin")
    args = ap.parse_args()
    if args.shift is None:
        PIN.write_text("\n".join(workload_lines()) + "\n")
    else:
        print("\n".join(workload_lines(shift=args.shift)), flush=True)
