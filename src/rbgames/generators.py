"""Built-in game instances and seeded random generators."""

import numpy as np

from .enumeration import degenerate_bimatrix
from .ip import PlayerProgram
from .model import Instance
from .numerics import SparseMatrix, seeded_rng


def canonical_knapsack_game():
    """Two-player binary knapsack game with three known equilibria.

    Each player packs two items to minimize own cost; the coupling
    matrices add a penalty whenever both players pick the same item.
    The game has two pure equilibria and one fully mixed one.
    """
    blue = PlayerProgram(
        name="blue",
        c=np.array([-1.0, -2.0]),
        C=SparseMatrix(2, 2, [(0, 0, 2.0), (1, 1, 3.0)]),
        A=SparseMatrix(1, 2, [(0, 0, 3.0), (0, 1, 4.0)]),
        b=np.array([5.0]),
        integers=[0, 1],
        lb=np.zeros(2),
        ub=np.ones(2),
    )
    red = PlayerProgram(
        name="red",
        c=np.array([-3.0, -5.0]),
        C=SparseMatrix(2, 2, [(0, 0, 5.0), (1, 1, 4.0)]),
        A=SparseMatrix(1, 2, [(0, 0, 2.0), (0, 1, 5.0)]),
        b=np.array([5.0]),
        integers=[0, 1],
        lb=np.zeros(2),
        ub=np.ones(2),
    )
    return Instance("canonical-knapsack").add_player(blue).add_player(red).finalize()


def random_knapsack_game(seed, n_players=2, n_items=2, coefficient_range=5):
    """Seeded random binary knapsack game.

    Every player gets ``n_items`` binary variables, a negative linear
    cost (items are worth taking), integer coupling coefficients in
    ``[-coefficient_range, coefficient_range]``, and one knapsack row
    whose capacity is half the total item weight, rounded up.
    """
    if n_players < 1:
        raise ValueError("need at least one player")
    if n_items < 1:
        raise ValueError("need at least one item")
    if coefficient_range < 1:
        raise ValueError("coefficient_range must be at least 1")
    rng = seeded_rng(seed)
    programs = []
    opp = (n_players - 1) * n_items
    for i in range(n_players):
        c = -rng.integers(1, coefficient_range + 1, size=n_items).astype(float)
        entries = []
        for r in range(opp):
            for col in range(n_items):
                v = int(rng.integers(-coefficient_range, coefficient_range + 1))
                if v != 0:
                    entries.append((r, col, float(v)))
        weights = rng.integers(1, coefficient_range + 1, size=n_items).astype(float)
        capacity = float(np.ceil(weights.sum() / 2.0))
        programs.append(
            PlayerProgram(
                name=f"p{i}",
                c=c,
                C=SparseMatrix(opp, n_items, entries),
                A=SparseMatrix(1, n_items, [(0, j, weights[j]) for j in range(n_items)]),
                b=np.array([capacity]),
                integers=list(range(n_items)),
                lb=np.zeros(n_items),
                ub=np.ones(n_items),
            )
        )
    inst = Instance(f"knapsack-seed{seed}-n{n_players}-m{n_items}")
    for p in programs:
        inst.add_player(p)
    return inst.finalize()


def infeasible_game():
    """One player whose single constraint row is unsatisfiable."""
    lone = PlayerProgram(
        name="stuck",
        c=np.array([1.0]),
        C=SparseMatrix(0, 1, []),
        A=SparseMatrix(1, 1, [(0, 0, 1.0)]),
        b=np.array([-1.0]),
        integers=[0],
        lb=np.zeros(1),
        ub=np.ones(1),
    )
    return Instance("infeasible-player").add_player(lone).finalize()


def cyclic_matching_game():
    """Three players, one binary choice each, no pure equilibrium.

    Player i pays 1 for matching the next player's choice and gains 1
    for differing, in a cycle, so every pure profile leaves someone
    wanting to flip. Encoded with one binary variable per player; the
    coupling rows stack the two opponents in ascending index order.
    """

    def chooser(name, watched_row):
        # cost x*(2*next - 1): pick 1 only when the watched player picks 0
        return PlayerProgram(
            name=name,
            c=np.array([-1.0]),
            C=SparseMatrix(2, 1, [(watched_row, 0, 2.0)]),
            A=SparseMatrix(0, 1, []),
            b=np.zeros(0),
            integers=[0],
            lb=np.zeros(1),
            ub=np.ones(1),
        )

    p0 = chooser("a", 0)  # watches player 1 (opponent stack [p1, p2])
    p1 = chooser("b", 1)  # watches player 2 (opponent stack [p0, p2])
    p2 = chooser("c", 0)  # watches player 0 (opponent stack [p0, p1])
    return Instance("cyclic-matching").add_player(p0).add_player(p1).add_player(p2).finalize()


def nondegenerate_seeds(n_items, count, start=0):
    """First ``count`` seeds giving knapsack games without best-response ties.

    Ties make equilibrium sets infinite, so pointwise comparison of two
    solvers is only meaningful without them.  The scan is deterministic:
    seeds are tried in order from ``start``.
    """
    seeds = []
    seed = start
    while len(seeds) < count:
        game = random_knapsack_game(seed, 2, n_items).game()
        if not degenerate_bimatrix(game):
            seeds.append(seed)
        seed += 1
    return seeds
