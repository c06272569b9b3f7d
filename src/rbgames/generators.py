"""Built-in game instances and seeded random generators."""

import numpy as np

from .enumeration import box_lattice, degenerate_arrays
from .ip import PlayerProgram
from .model import Instance
from .numerics import SparseMatrix, seeded_rng

_COEFFICIENT_RANGE = 5


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


def random_knapsack_game(seed, n_players=2, n_items=2):
    """Seeded random binary knapsack game.

    Every player gets ``n_items`` binary variables, a negative linear
    cost (items are worth taking), integer coupling coefficients in
    [-5, 5] (``_COEFFICIENT_RANGE``), and one knapsack row whose
    capacity is half the total item weight, rounded up.
    """
    inst = Instance(f"knapsack-seed{seed}-n{n_players}-m{n_items}")
    for i, (c, C, weights, capacity) in enumerate(_knapsack_draws(seed, n_players, n_items)):
        inst.add_player(
            PlayerProgram(
                name=f"p{i}",
                c=c,
                C=C,
                A=weights[None, :],
                b=np.array([capacity]),
                integers=list(range(n_items)),
                lb=np.zeros(n_items),
                ub=np.ones(n_items),
            )
        )
    return inst.finalize()


def _knapsack_draws(seed, n_players, n_items):
    """The seeded draws behind ``random_knapsack_game``, as arrays.

    Returns one (c, C, weights, capacity) tuple per player, where C is
    the dense coupling, one row per opponent variable.
    """
    if n_players < 1:
        raise ValueError("need at least one player")
    if n_items < 1:
        raise ValueError("need at least one item")
    rng = seeded_rng(seed)
    players = []
    for _ in range(n_players):
        c = -rng.integers(1, _COEFFICIENT_RANGE + 1, size=n_items).astype(float)
        # one scalar draw per entry, row-major: one array draw reads another stream
        C = np.array([rng.integers(-_COEFFICIENT_RANGE, _COEFFICIENT_RANGE + 1)
                      for _ in range((n_players - 1) * n_items * n_items)], dtype=float).reshape(-1, n_items)
        weights = rng.integers(1, _COEFFICIENT_RANGE + 1, size=n_items).astype(float)
        players.append((c, C, weights, float(np.ceil(weights.sum() / 2.0))))
    return players


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
    seeds are tried in order from ``start``.  Each seed is screened on
    the draws of ``random_knapsack_game(seed, 2, n_items)`` by
    ``degenerate_arrays``, so no game is built.
    """
    lb, ub = np.zeros(n_items), np.ones(n_items)
    seeds = []
    seed = start
    while len(seeds) < count:
        (c1, C1, _, _), (c2, C2, _, _) = draws = _knapsack_draws(seed, 2, n_items)
        S1, S2 = [box_lattice(lb, ub, w[None, :], np.array([cap])) for _, _, w, cap in draws]
        if not degenerate_arrays(S1, S2, c1, C1, c2, C2):
            seeds.append(seed)
        seed += 1
    return seeds
