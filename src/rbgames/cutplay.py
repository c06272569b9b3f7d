"""Equilibria by outer approximation: cut and play.

Each player's mixed-strategy hull is approximated from outside by a
union of polyhedral pieces, starting from the LP relaxation.  Each
round solves the stacked KKT complementarity system of the convexified
game, then asks a separation oracle whether every player's strategy
point really lies in its hull.  Points that do not are cut off (cover
or Gomory cuts) or branched away.  A Member verdict carries its
certificate, the player's strategy (a feasible integral point or weights
over pure strategies); once every player is a member, those strategies
face the final best-response check.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cuts as cutgen
from .enumeration import full_enumeration, lattice_points
from .errors import BudgetExhausted, InfeasibleGame, NumericalFailure
from .game import (EqStatus, EquilibriumResult, PlayerStrategy,
                   SolveStats, StrategyProfile, build_nash_lcp,
                   deviation_check, opponents_vector, profile_payoffs,
                   support_from_points)
from .ip import parametrized_objective, solve_ip
from .lcp import NoSolution, solve_lcp
from .lp import LPStatus
from .numerics import DEVIATION_EPS, FEAS_TOL
from .poly import convex_hull

_INT_TOL = 1e-6
_ORACLE_CAP = 1 << 16


class Algorithm:
    CUT_AND_PLAY = "cutandplay"
    FULL_ENUMERATION = "fullenum"


@dataclass(eq=False)
class SolverOptions:
    """Knobs shared by both algorithms; the solvers are deterministic.

    ``deviation_eps`` is the payoff gain that counts as a profitable
    deviation, ``time_limit`` the wall clock limit in seconds (None: no
    limit) and ``max_iterations`` the cap on cut-and-play rounds.  Every
    other tolerance is a constant of ``numerics``.
    """

    algorithm: str = Algorithm.CUT_AND_PLAY
    deviation_eps: float = DEVIATION_EPS
    time_limit: float = None
    max_iterations: int = 100

    def __post_init__(self):
        if self.algorithm not in (Algorithm.CUT_AND_PLAY, Algorithm.FULL_ENUMERATION):
            raise ValueError(f"unknown algorithm: {self.algorithm}")
        if self.deviation_eps <= 0:
            raise ValueError("deviation_eps must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(eq=False)
class Member:
    """The point is in the player's hull; ``strategy`` certifies it.

    ``pure`` marks a feasible integral point, which is its own support.
    """

    strategy: PlayerStrategy
    pure: bool = False


@dataclass(eq=False)
class Cuts:
    cuts: list  # (pi, pi0) pairs over the player's own variables


@dataclass(eq=False)
class Branch:
    index: int
    floor: int


class PlayerState:
    """Outer approximation of one player's mixed-strategy hull."""

    def __init__(self, program):
        self.program = program
        self.pieces = [program.relaxation()]
        self.cut_pool = []  # (pi, pi0), all valid for every integer point
        self._region = None
        self._pure = False  # False: not computed yet; None: unavailable

    def region(self):
        if self._region is None:
            self._region = self.pieces[0] if len(self.pieces) == 1 else convex_hull(self.pieces)
        return self._region

    def pure_points(self):
        if self._pure is False:
            self._pure = lattice_points(self.program, cap=_ORACLE_CAP)
        return self._pure

    def base_rows(self):
        """Original rows plus pooled cuts: the valid-row system for cut search."""
        A = self.program._dense_A
        b = self.program.b
        if self.cut_pool:
            A = np.vstack([A] + [pi[None, :] for pi, _ in self.cut_pool])
            b = np.concatenate([b, [pi0 for _, pi0 in self.cut_pool]])
        return A, b

    def apply_cuts(self, new_cuts):
        pure = self.pure_points()
        for pi, pi0 in new_cuts:
            if pure is not None and pure.size:
                worst = float(np.max(pure @ pi) - pi0)
                if worst > FEAS_TOL:
                    raise NumericalFailure(f"generated cut drops an integer point by {worst:.2e}")
        self.cut_pool.extend(new_cuts)
        rows = np.array([pi for pi, _ in new_cuts])
        rhs = np.array([pi0 for _, pi0 in new_cuts])
        self._replace_pieces([piece.with_rows(rows, rhs) for piece in self.pieces], "cuts")

    def apply_branch(self, j, floor_val):
        children = [child for piece in self.pieces
                    for child in (piece.with_bound(j, hi=floor_val), piece.with_bound(j, lo=floor_val + 1))]
        self._replace_pieces(children, "branching")

    def _replace_pieces(self, children, cause):
        survivors = [child for child in children if child is not None and not child.is_empty()]
        if not survivors:
            raise InfeasibleGame(f"player {self.program.name}: region emptied by {cause}")
        self.pieces = survivors
        self._region = None


class OuterApproximation:
    """Per-player refinement state for one cut-and-play run."""

    def __init__(self, game):
        self.game = game
        self.states = [PlayerState(p) for p in game.players]

    def regions(self):
        return [s.region() for s in self.states]


def separation_oracle(state, sigma, cost=None):
    """Decide Member / Cuts / Branch for a strategy point.

    Member carries its certificate: the point snapped to integers when
    that is feasible (a pure strategy), or else the point with weights
    over enumerated pure strategies that reproduce it.  Otherwise prefer
    cuts (cover, then Gomory with the supplied supporting cost);
    branching on the most fractional integer coordinate is the fallback.
    """
    p = state.program
    sigma = np.array(sigma, dtype=float)
    ints = np.array(p.integers, dtype=np.int64)

    snapped = sigma.copy()
    snapped[ints] = np.round(snapped[ints])
    integral = np.max(np.abs(sigma - snapped), initial=0.0) <= _INT_TOL
    if integral and p.relaxation().contains(snapped):
        return Member(PlayerStrategy(snapped, [(1.0, snapped.copy())]), pure=True)

    pure = state.pure_points()
    support = support_from_points(pure, sigma) if pure is not None and pure.size else None
    if support is not None:
        return Member(PlayerStrategy(sigma, support))

    A, b = state.base_rows()
    binary = np.zeros(p.nvars, dtype=bool)
    for j in ints:
        binary[j] = p.lb[j] == 0.0 and p.ub[j] == 1.0
    found = cutgen.cover_cuts(A, b, sigma, binary)
    if not found and cost is not None and ints.size == p.nvars:
        found = cutgen.gomory_cuts(A, b, p.lb, p.ub, p.integers, cost, sigma)
    if found:
        return Cuts(found)

    if not ints.size:
        raise NumericalFailure(
            f"player {p.name}: continuous point escaped its hull with no cut available"
        )
    # branch on the most fractional coordinate whose split still divides
    # some piece; a split that every piece already satisfies one side of
    # would leave the region unchanged and stall the refinement loop
    frac = np.abs(sigma - snapped)[ints]
    for k in np.argsort(-frac, kind="stable"):
        if frac[k] <= _INT_TOL:
            break
        j = int(ints[k])
        f = math.floor(sigma[j])
        if _splits_a_piece(state, j, f):
            return Branch(index=j, floor=f)
    for j in ints:
        j = int(j)
        for piece in state.pieces:
            lo, hi = piece.lb[j], piece.ub[j]
            f = math.floor((lo + hi) / 2.0)
            if f < lo:
                f = math.ceil(lo)
            if lo <= f < hi:
                return Branch(index=j, floor=f)
    raise NumericalFailure(
        f"player {p.name}: point escaped the hull but every piece is fully branched"
    )


def _splits_a_piece(state, j, floor_value):
    return any(piece.lb[j] <= floor_value < piece.ub[j] for piece in state.pieces)


def refine_region(state, action):
    """Apply a separation outcome to the player's piece set."""
    if isinstance(action, Cuts):
        state.apply_cuts(action.cuts)
    elif isinstance(action, Branch):
        state.apply_branch(action.index, action.floor)
    else:
        raise TypeError("refine_region expects Cuts or Branch")


def _result(status, stats, profile=None, payoffs=None):
    return EquilibriumResult(status=status, profile=profile, payoffs=payoffs, stats=stats)


def _exhausted(deadline):
    """Status of a run whose solver raised BudgetExhausted.

    Only a passed deadline is a time limit; a node or pivot budget that
    runs out before it is a numerical failure.
    """
    if deadline is not None and time.monotonic() > deadline:
        return EqStatus.TIME_LIMIT
    return EqStatus.NUMERICAL_FAILURE


def cut_and_play(game, opts=None, watcher=None):
    """Find one equilibrium of the game by outer approximation.

    ``watcher(outer, iteration)`` runs after every refinement round, a
    hook used by the test suite to audit the outer-ness invariant.
    Every exit, a solver failure included, returns its SolveStats.
    """
    opts = opts or SolverOptions()
    t0 = time.monotonic()
    deadline = t0 + opts.time_limit if opts.time_limit is not None else None
    stats = SolveStats()

    def finish(status, profile=None, payoffs=None):
        stats.wall_ms = (time.monotonic() - t0) * 1000.0
        return _result(status, stats, profile, payoffs)

    try:
        return _rounds(game, opts, deadline, stats, finish, watcher)
    except BudgetExhausted:
        return finish(_exhausted(deadline))
    except InfeasibleGame:
        return finish(EqStatus.INFEASIBLE)
    except NumericalFailure:
        return finish(EqStatus.NUMERICAL_FAILURE)


def _rounds(game, opts, deadline, stats, finish, watcher):
    # a player with an empty strategy set means no equilibrium of any kind
    for i, p in enumerate(game.players):
        probe = solve_ip(p, np.zeros(p.opp_vars), deadline=deadline)
        if probe.status is LPStatus.INFEASIBLE:
            return finish(EqStatus.INFEASIBLE)
        if probe.status is LPStatus.UNBOUNDED:
            raise ValueError(f"player {i} ({p.name}) must have a bounded feasible set")

    outer = OuterApproximation(game)
    for iteration in range(1, opts.max_iterations + 1):
        stats.iterations = iteration
        if deadline is not None and time.monotonic() > deadline:
            return finish(EqStatus.TIME_LIMIT)
        problem, index_map = build_nash_lcp(game, outer.regions())
        try:
            sol = solve_lcp(problem, deadline=deadline)
        except BudgetExhausted as exc:
            stats.lcp_nodes += exc.nodes
            raise
        stats.lcp_nodes += sol.nodes
        del problem  # the next round's LCP is built without this one alive
        if isinstance(sol, NoSolution):
            # each round's game has an equilibrium, so its LCP a solution
            return finish(EqStatus.NUMERICAL_FAILURE)

        sigmas = index_map.extract(sol.z)
        actions = []
        for i, state in enumerate(outer.states):
            cost = parametrized_objective(game.players[i], opponents_vector(game, sigmas, i))
            actions.append(separation_oracle(state, sigmas[i], cost))

        if all(isinstance(a, Member) for a in actions):
            return _certify(game, actions, opts, deadline, finish)

        for state, action in zip(outer.states, actions):
            if isinstance(action, Cuts):
                stats.cuts += len(action.cuts)
                refine_region(state, action)
            elif isinstance(action, Branch):
                stats.branches += 1
                refine_region(state, action)
        if watcher is not None:
            watcher(outer, iteration)

    return finish(EqStatus.NUMERICAL_FAILURE)


def _certify(game, members, opts, deadline, finish):
    """Every oracle call said Member: deviation-check their strategies."""
    profile = StrategyProfile([m.strategy for m in members])
    if deviation_check(game, profile, eps=opts.deviation_eps, deadline=deadline):
        return finish(EqStatus.NUMERICAL_FAILURE)
    status = EqStatus.PNE if all(m.pure for m in members) else EqStatus.MNE
    return finish(status, profile=profile, payoffs=profile_payoffs(game, profile))


def solve_game(game, opts=None):
    """Dispatch on the selected algorithm; returns a list of results."""
    opts = opts or SolverOptions()
    if opts.algorithm == Algorithm.CUT_AND_PLAY:
        return [cut_and_play(game, opts)]
    t0 = time.monotonic()
    deadline = t0 + opts.time_limit if opts.time_limit is not None else None
    status, found = EqStatus.NO_EQUILIBRIUM_FOUND, []
    try:
        found = full_enumeration(game, deadline=deadline)
    except BudgetExhausted:
        status = _exhausted(deadline)
    except InfeasibleGame:
        status = EqStatus.INFEASIBLE
    return found or [_result(status, SolveStats(wall_ms=(time.monotonic() - t0) * 1000.0))]
