"""Equilibria by outer approximation: cut and play.

Each player's mixed-strategy hull is approximated from outside by one
polyhedron, starting from the LP relaxation.  A ``PlayerState`` per
player owns that player's part of a run: its region, the fixed data
the oracle reads (worked out once, when the state is built) and the
run's deadline.  Each round, at most ``_MAX_ROUNDS`` of them, solves the
stacked KKT complementarity system of the convexified game, then asks a
separation oracle whether every player's strategy point really lies in
its hull.  The oracle's one LP, ``game.support_from_points``, measures
the point's L1 distance to the hull of the player's pure strategies:
within FEAS_TOL its weights certify a Member, and past it its dual
gives the exact cut, so nothing branches.  A Member verdict carries
its certificate, the player's strategy (a feasible integral point or
weights over pure strategies); once every player is a member, those
strategies face the final best-response check.  Pricing a cut and that
check are one step, a player's best response (``ip.best_response``):
over its enumerated lattice (``PlayerState.lattice``), or by branch and
bound for a player whose working set grows by column generation.

A round only adds cut rows, so each round's Nash LCP is the last
round's, on the same boxes, bordered by the new rows
(``build_nash_lcp``), and Lemke starts from the last round's final
basis (``lcp.solve_lcp``'s ``start``).  That warm path carries no
guarantee, so ``solve_lcp`` itself falls back to the cold path, which
copositive-plus M guarantees, and says so in its answer's
``restarted``.

No solve runs whose answer is already known: there is no start-of-solve
probe, so an enumerated player's run solves no integer program at all;
a violated cover cut decides Cuts without the LP; and emptiness tests
start at the lower corner (``Polyhedron.is_empty``).  Every LP of a run
takes the run's deadline.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cuts as cutgen
from .enumeration import full_enumeration, lattice_points
from .errors import BudgetExhausted, InfeasibleGame, NumericalFailure, UnsupportedGame
from .game import (EqStatus, EquilibriumResult, PlayerStrategy,
                   SolveStats, StrategyProfile, build_nash_lcp,
                   deviation_check, profile_payoffs, support_from_points)
from .ip import best_response, solve_ip
from .lcp import NoSolution, solve_lcp
from .lp import LPStatus
from .numerics import DEVIATION_EPS, FEAS_TOL, INT_TOL, PRUNE_TOL

_ORACLE_CAP = 1 << 16
_MAX_ROUNDS = 100
_DEPTH_MARGIN = 1e-8  # how far a cut's depth may fall below the LP's distance: PRUNE_TOL and rounding


class Algorithm:
    CUT_AND_PLAY = "cutandplay"
    FULL_ENUMERATION = "fullenum"


@dataclass(eq=False)
class SolverOptions:
    """Knobs shared by both algorithms; the solvers are deterministic.

    ``deviation_eps`` is the payoff gain that counts as a profitable
    deviation and ``time_limit`` the wall clock limit in seconds (None:
    no limit).  Every other tolerance is a constant of ``numerics``, and
    cut and play stops after ``_MAX_ROUNDS`` rounds.
    """

    algorithm: str = Algorithm.CUT_AND_PLAY
    deviation_eps: float = DEVIATION_EPS
    time_limit: float = None

    def __post_init__(self):
        if self.algorithm not in (Algorithm.CUT_AND_PLAY, Algorithm.FULL_ENUMERATION):
            raise ValueError(f"unknown algorithm: {self.algorithm}")
        # a NaN would pass "<= 0" and then silently switch the deviation
        # check (gain > nan is never true) or the deadline off
        if not (math.isfinite(self.deviation_eps) and self.deviation_eps > 0):
            raise ValueError("deviation_eps must be positive and finite")
        if self.time_limit is not None and not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise ValueError("time_limit must be positive and finite")


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


class PlayerState:
    """Outer approximation of one player's mixed-strategy hull.

    Starts at the LP relaxation: raises InfeasibleGame when it is empty
    and UnsupportedGame naming the player when it is unbounded.
    ``pieces`` holds the one polyhedron of the region.  The player's
    fixed data, which the oracle reads on every call, are worked out
    once, here: ``relaxation``; ``integers``; ``knapsacks``, the rows
    of the player's program that cover separation can use
    (``cuts.knapsack_rows`` over its 0/1 integer variables); and
    ``lattice``, the player's lattice points, or None when they are not
    enumerated (past ``_ORACLE_CAP`` or with a continuous variable).
    ``deadline`` bounds every LP and IP that the state and the oracle
    run.
    """

    def __init__(self, program, deadline=None):
        self.program = program
        self.deadline = deadline
        self.points = None  # the oracle's pure strategies, once pure_points() has run
        self.relaxation = program.relaxation()
        self.integers = np.array(program.integers, dtype=np.int64)
        self._set_region(self.relaxation, "its own rows")
        try:
            self.pieces[0].bounding_box(deadline)
        except ValueError as exc:
            raise UnsupportedGame(f"player {program.name} must have a bounded feasible set: {exc}") from None
        binary = np.zeros(program.nvars, dtype=bool)
        binary[self.integers] = (program.lb[self.integers] == 0.0) & (program.ub[self.integers] == 1.0)
        self.knapsacks = cutgen.knapsack_rows(self.relaxation.A, self.relaxation.b, binary)
        self.lattice = lattice_points(program, cap=_ORACLE_CAP)

    def region(self):
        return self.pieces[0]

    def pure_points(self):
        """The oracle's pure strategies, one per row: ``lattice`` when it
        is enumerated, else a working set of integer points seeded with
        the optimum of the player's integer program and grown by pricing.
        Raises InfeasibleGame when the player has no integer point.
        """
        if self.points is None:
            pts = self.lattice
            if pts is None:
                best = solve_ip(self.program, deadline=self.deadline)
                if best.status is LPStatus.INFEASIBLE:
                    raise InfeasibleGame(f"player {self.program.name}: its integer program is infeasible")
                pts = best.x[None, :]
            elif not pts.size:
                raise InfeasibleGame(f"player {self.program.name}: no integer point satisfies its rows")
            self.points = pts
        return self.points

    def apply_cuts(self, new_cuts):
        pure = self.pure_points()
        for pi, pi0 in new_cuts:
            worst = float(np.max(pure @ pi) - pi0)
            if worst > FEAS_TOL:
                raise NumericalFailure(f"generated cut drops an integer point by {worst:.2e}")
        rows = np.array([pi for pi, _ in new_cuts])
        rhs = np.array([pi0 for _, pi0 in new_cuts])
        self._set_region(self.pieces[0].with_rows(rows, rhs), "cuts")

    def _set_region(self, region, cause):
        if region.is_empty(self.deadline):
            raise InfeasibleGame(f"player {self.program.name}: region emptied by {cause}")
        self.pieces = [region]


def separation_oracle(state, sigma):
    """Decide Member or Cuts for a strategy point.

    Member carries its certificate: the point snapped to integers when
    that is feasible (a pure strategy), or else the point with weights
    over the player's pure strategies (``PlayerState.pure_points``)
    that reproduce it.  A cover cut has 0/1 coefficients, so by
    Hoelder's inequality no point violates it by more than its L1
    distance to the hull, and ``cover_cuts`` reports only violations
    above FEAS_TOL, the distance up to which the LP accepts a member:
    a reported cover cut decides Cuts before any LP.  Cover cuts come
    from the knapsack rows of the player's own program alone
    (``PlayerState.knapsacks``); a cut row would add none.  An eligible
    cut row has positive integral coefficients of at most 1 (a cover
    cut's are 0/1 and an exact cut has |pi_j| <= 1), so it reads
    sum_S x_j <= b over binaries.  Its minimal covers have b + 1 items
    and yield sum_C x_j <= b with C in S, which on nonnegative binaries
    sums to at most the row itself; sigma, the round's LCP point, meets
    that row within the LCP's tolerance, COMPLEMENTARITY_TOL = FEAS_TOL,
    so none of those covers is violated past FEAS_TOL.  Otherwise one LP
    (``support_from_points``) gives Member or the exact cut
    pi x <= pi0 from its dual.  The player's best response to -pi
    (``ip.best_response``) prices it: a better point joins the working
    set, the whole lattice of an enumerated player, and the LP runs
    again; else pi0 is the larger of the set's and the priced maximum
    of pi.  The LP rejects only points farther than FEAS_TOL, so a cut
    no deeper than FEAS_TOL less ``_DEPTH_MARGIN`` raises
    NumericalFailure.  The state's ``deadline`` bounds every LP and IP.
    """
    p = state.program
    sigma = np.array(sigma, dtype=float)
    ints = state.integers

    snapped = sigma.copy()
    snapped[ints] = np.round(snapped[ints])
    integral = np.max(np.abs(sigma - snapped), initial=0.0) <= INT_TOL
    if integral and state.relaxation.contains(snapped):
        return Member(PlayerStrategy(snapped, [(1.0, snapped)]), pure=True)

    found = cutgen.cover_cuts(state.knapsacks, sigma)
    if found:
        return Cuts(found)

    points = state.pure_points()
    while True:
        support, pi = support_from_points(points, sigma, state.deadline)
        if support is not None:
            return Member(PlayerStrategy(sigma, support))
        known = float(np.max(points @ pi))
        best = best_response(p, -pi, state.lattice, state.deadline)
        if -best.value <= known + PRUNE_TOL:
            break
        points = state.points = np.vstack([points, best.x])
    pi0 = max(known, -best.value)
    if float(pi @ sigma) - pi0 <= FEAS_TOL - _DEPTH_MARGIN:
        raise NumericalFailure(f"player {p.name}: the separation LP's cut does not remove the point")
    return Cuts([(pi, pi0)])


def refine_region(state, action):
    """Apply the oracle's cuts to the player's region."""
    state.apply_cuts(action.cuts)


def _result(status, stats, profile=None, payoffs=None):
    return EquilibriumResult(status=status, profile=profile, payoffs=payoffs, stats=stats)


def _exhausted(deadline, exc):
    """(status, reason) of a run whose solver raised BudgetExhausted.

    Only a passed deadline is a time limit, with reason "deadline"; a
    node, pivot or profile budget that runs out before it is a
    numerical failure, with the budget's message as its reason.
    """
    if deadline is not None and time.monotonic() > deadline:
        return EqStatus.TIME_LIMIT, "deadline"
    return EqStatus.NUMERICAL_FAILURE, str(exc)


def cut_and_play(game, opts=None):
    """Find one equilibrium of the game by outer approximation.

    Every exit, a solver failure included, returns its SolveStats, and
    every exit without an equilibrium sets its ``reason``.
    """
    opts = opts or SolverOptions()
    t0 = time.monotonic()
    deadline = t0 + opts.time_limit if opts.time_limit is not None else None
    stats = SolveStats()

    def finish(status, profile=None, payoffs=None, reason=None):
        stats.wall_ms = (time.monotonic() - t0) * 1000.0
        stats.reason = reason
        return _result(status, stats, profile, payoffs)

    try:
        return _rounds(game, opts, deadline, stats, finish)
    except BudgetExhausted as exc:
        stats.lcp_nodes += exc.nodes
        status, reason = _exhausted(deadline, exc)
        return finish(status, reason=reason)
    except InfeasibleGame as exc:
        return finish(EqStatus.INFEASIBLE, reason=str(exc))
    except NumericalFailure as exc:
        return finish(EqStatus.NUMERICAL_FAILURE, reason=str(exc))


def _rounds(game, opts, deadline, stats, finish):
    states = [PlayerState(p, deadline) for p in game.players]
    last, sol = None, None  # the last round's (LCP, index map) and solution
    for iteration in range(1, _MAX_ROUNDS + 1):
        stats.iterations = iteration
        if deadline is not None and time.monotonic() > deadline:
            return finish(EqStatus.TIME_LIMIT, reason="deadline")
        last = build_nash_lcp(game, [s.region() for s in states], last)
        problem, index_map = last
        stats.warm_rounds += sol is not None
        sol = solve_lcp(problem, deadline=deadline, start=sol)
        stats.lcp_nodes += sol.nodes
        stats.cold_restarts += sol.restarted
        if isinstance(sol, NoSolution):
            # each round's game has an equilibrium, so its LCP a solution
            return finish(EqStatus.NUMERICAL_FAILURE, reason=sol.reason)

        sigmas = index_map.extract(sol.z)
        actions = [separation_oracle(state, sigma) for state, sigma in zip(states, sigmas)]

        if all(isinstance(a, Member) for a in actions):
            return _certify(game, states, actions, opts, deadline, finish)

        for state, action in zip(states, actions):
            if isinstance(action, Cuts):
                stats.cuts += len(action.cuts)
                refine_region(state, action)

    return finish(EqStatus.NUMERICAL_FAILURE, reason="round cap")


def _certify(game, states, members, opts, deadline, finish):
    """Every oracle call said Member: deviation-check their strategies,
    on each player's enumerated lattice where there is one."""
    profile = StrategyProfile([m.strategy for m in members])
    lattices = [state.lattice for state in states]
    if deviation_check(game, profile, eps=opts.deviation_eps, deadline=deadline, lattices=lattices):
        return finish(EqStatus.NUMERICAL_FAILURE, reason="deviation")
    status = EqStatus.PNE if all(m.pure for m in members) else EqStatus.MNE
    return finish(status, profile=profile, payoffs=profile_payoffs(game, profile))


def solve_game(game, opts=None):
    """Dispatch on the selected algorithm; returns a list of results."""
    opts = opts or SolverOptions()
    if opts.algorithm == Algorithm.CUT_AND_PLAY:
        return [cut_and_play(game, opts)]
    t0 = time.monotonic()
    deadline = t0 + opts.time_limit if opts.time_limit is not None else None
    status, reason, found = EqStatus.NO_EQUILIBRIUM_FOUND, "enumeration found no equilibrium", []
    try:
        found = full_enumeration(game, deadline=deadline)
    except BudgetExhausted as exc:
        status, reason = _exhausted(deadline, exc)
    except InfeasibleGame as exc:
        status, reason = EqStatus.INFEASIBLE, str(exc)
    return found or [_result(status, SolveStats(wall_ms=(time.monotonic() - t0) * 1000.0, reason=reason))]
