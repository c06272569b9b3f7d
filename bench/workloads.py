"""The benchmark's three workloads of seeded knapsack games.

Every workload is a fixed list of ``random_knapsack_game`` instances
solved by ``cut_and_play`` with ``deviation_eps=3e-4``:

corpus  the acceptance corpus, ``nondegenerate_seeds(2, 200)`` at two
        items plus ``nondegenerate_seeds(3, 80)`` at three items, all
        two-player (280 games, 30 s limit each).  Many tiny games: time
        is spread over small LPs, B&B best responses, Lemke, the oracle
        and certification, so per-call overhead shows.
ladder  the scale-ladder shapes 2x6, 2x10, 3x3, 3x5 and 4x4 at seeds
        0-4 (25 games, 20 s limit each).  LCP branching and its node
        LPs take nearly all of the time.
stall   the rest of the ladder, shapes 2x4 and 2x8 at seeds 0-4 (10
        games, 5 s limit each).  Three of them end TimeLimit: branching
        pinned at the limit (2x4 seeds 0 and 2) and Lemke at LCP order
        ~359 running past the deadline (2x8 seed 1).  Every other game
        finishes in about 1 s or less, so statuses do not flip as host
        speed drifts.

The benchmark's ``--seed`` only sets the order in which the games are
solved.  Shifted game windows are neither steady nor failure-free: of
the corpus windows whose scans start at 1000, 2000, ..., 9000, three
hold a game that ends TimeLimit at 30 s, and ladder seeds 5-10 hold
games that end TimeLimit at 20 s or finish just under it.  ``shift``
selects such a held-out window on purpose: the corpus scans start at
``1000 * shift`` and the ladder seeds at ``5 * shift``.
"""

import random
from dataclasses import dataclass

from rbgames import random_knapsack_game
from rbgames.generators import nondegenerate_seeds

DEVIATION_EPS = 3e-4
NAMES = ("corpus", "ladder", "stall")

_LADDER_SHAPES = ((2, 6), (2, 10), (3, 3), (3, 5), (4, 4))
_STALL_SHAPES = ((2, 4), (2, 8))
_TIME_LIMIT = {"corpus": 30.0, "ladder": 20.0, "stall": 5.0}


@dataclass(frozen=True)
class Case:
    """One game of a workload: the generator arguments and its time limit."""

    players: int
    items: int
    seed: int
    time_limit: float

    @property
    def shape(self):
        return f"{self.players}x{self.items}"


def cases(name, shift=0):
    """The workload's games in canonical (shape, seed) order."""
    if name not in NAMES:
        raise ValueError(f"unknown workload: {name}")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    limit = _TIME_LIMIT[name]
    if name == "corpus":
        start = 1000 * shift
        return [Case(2, 2, s, limit) for s in nondegenerate_seeds(2, 200, start=start)] + [
            Case(2, 3, s, limit) for s in nondegenerate_seeds(3, 80, start=start)
        ]
    shapes = _LADDER_SHAPES if name == "ladder" else _STALL_SHAPES
    seeds = range(5 * shift, 5 * shift + 5)
    return [Case(p, m, s, limit) for p, m in shapes for s in seeds]


def build(name, seed, shift=0):
    """(case, game) pairs in the solve order fixed by ``seed``."""
    pairs = [(c, random_knapsack_game(c.seed, c.players, c.items).game()) for c in cases(name, shift)]
    random.Random(seed).shuffle(pairs)
    return pairs
